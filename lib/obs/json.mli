(** The restricted JSON codec shared by trace files ({!Trace}) and the
    admission server's wire protocol: one flat object per line, values
    strings, numbers or booleans — nothing nested, nothing null.

    Finite floats render with ["%.17g"], so a value round-trips
    bit-exactly.  What happens to the non-finite values JSON cannot
    spell is the caller's {!non_finite} policy. *)

type value = String of string | Number of float | Bool of bool

(** An object as an ordered field list.  Duplicate keys are rejected by
    {!parse}; {!render} trusts its caller. *)
type obj = (string * value) list

type non_finite =
  | Reject
      (** [render] raises, [parse] refuses: the wire protocol, where no
          field has a meaningful non-finite value *)
  | Quote
      (** rendered as the strings ["nan"], ["inf"], ["-inf"], which
          {!number} reads back: trace files, where a diverging solver
          residual is data *)

(** [add_value policy b v] appends one value.
    @raise Invalid_argument on a non-finite number under [Reject]. *)
val add_value : non_finite -> Buffer.t -> value -> unit

(** [render ?non_finite obj] prints the object on one line, no trailing
    newline.  [non_finite] defaults to [Reject].
    @raise Invalid_argument on a non-finite number under [Reject]. *)
val render : ?non_finite:non_finite -> obj -> string

(** [parse ?non_finite line] decodes what {!render} wrote (plus
    insignificant spaces, tabs and ['\r']).  [Error msg] on anything
    outside the restricted grammar: nesting, null, duplicate keys,
    trailing garbage, and under [Reject] (the default) a number that
    overflows to infinity. *)
val parse : ?non_finite:non_finite -> string -> (obj, string) Stdlib.result

(** Field accessors; [None] when the key is absent {e or} holds a value
    of the wrong type ([int] additionally requires an integral
    number).  Under [Quote], [number] also reads the quoted non-finite
    spellings. *)

val str : obj -> string -> string option
val number : ?non_finite:non_finite -> obj -> string -> float option
val int : obj -> string -> int option
val bool : obj -> string -> bool option
