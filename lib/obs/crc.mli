(** CRC-32 (IEEE 802.3), the checksum of gzip and PNG, and the
    CRC-framed line format of trace files ({!Sink}) and sweep journals
    ([Durable.Journal]), which detects torn or corrupted lines. *)

(** [string s] is the CRC-32 of [s].  The classic check value holds:
    [string "123456789" = 0xCBF43926l]. *)
val string : string -> int32

(** [update crc s] extends a running checksum, so
    [update (string a) b = string (a ^ b)]. *)
val update : int32 -> string -> int32

(** [hex crc] is the 8-digit lowercase hex rendering. *)
val hex : int32 -> string

(** [render_line body] is the framed line ["<crc32-hex> <body>\n"],
    the CRC covering [body]. *)
val render_line : string -> string

(** [body_of_line line] inverts {!render_line} for a [line] without its
    newline; [None] on any damage (too short, missing separator, CRC
    mismatch). *)
val body_of_line : string -> string option
