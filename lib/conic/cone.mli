(** Symmetric-cone structure for the interior-point solver.

    A cone [K] is a Cartesian product of non-negative orthants and
    second-order (Lorentz) cones
    [SOC(q) = {(t, u) ∈ ℝ×ℝ^(q−1) | ‖u‖₂ ≤ t}].
    All vectors handled here live in the product space and operations
    are applied block by block.  The module provides the Jordan-algebra
    operations and the Nesterov–Todd scaling used by {!Socp}. *)

type block =
  | Nonneg of int  (** non-negative orthant of the given dimension *)
  | Soc of int     (** second-order cone of the given dimension, ≥ 1 *)

type t

(** [make blocks] validates the block list (positive dimensions).
    @raise Invalid_argument on a non-positive dimension. *)
val make : block list -> t

(** [blocks k] returns the block structure. *)
val blocks : t -> block list

(** [soc_blocks k] lists the [(offset, length)] of every second-order
    block, in order: the row groups that must share one scale factor in
    {!Presolve} and whose rows the NT scaling mixes in the sparse KKT
    pattern. *)
val soc_blocks : t -> (int * int) list

(** [dim k] is the total dimension of the product space. *)
val dim : t -> int

(** [degree k] is the barrier degree: orthant dimensions count 1 each,
    every SOC block counts 1. *)
val degree : t -> int

(** [identity k] is the identity element [e]: all-ones on orthant
    blocks, [(1, 0, …)] on SOC blocks. *)
val identity : t -> Linalg.Vec.t

(** [min_eig k u] is the smallest spectral value of [u]:
    the smallest entry on orthant blocks, [t − ‖ū‖] on SOC blocks.
    [u ∈ K] iff [min_eig k u ≥ 0]. *)
val min_eig : t -> Linalg.Vec.t -> float

(** [mem ?eps k u] tests membership of [u] in [K] within tolerance. *)
val mem : ?eps:float -> t -> Linalg.Vec.t -> bool

(** [prod k u v] is the Jordan product [u ∘ v]:
    component-wise on orthants, [(uᵀv, u₀v̄ + v₀ū)] on SOC blocks. *)
val prod : t -> Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t

(** [div k lam d] solves [lam ∘ u = d] for [u] block by block.
    [lam] must be strictly interior. *)
val div : t -> Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t

(** [max_step k u du] is [sup {α ≥ 0 | u + α·du ∈ K}] for [u ∈ K];
    [infinity] when the ray stays inside. *)
val max_step : t -> Linalg.Vec.t -> Linalg.Vec.t -> float

(** Nesterov–Todd scaling point for a strictly feasible primal–dual pair
    [(s, z)].  The scaling [W] is the unique symmetric cone automorphism
    with [W·z = W⁻¹·s = λ] (the scaled variable). *)
type scaling

(** [nt_scaling k ~s ~z] computes the scaling.
    @raise Invalid_argument if [s] or [z] is not strictly interior. *)
val nt_scaling : t -> s:Linalg.Vec.t -> z:Linalg.Vec.t -> scaling

(** [apply w u] computes [W·u]. *)
val apply : scaling -> Linalg.Vec.t -> Linalg.Vec.t

(** [apply_inv w u] computes [W⁻¹·u]; [W] is symmetric so this is also
    [W⁻ᵀ·u]. *)
val apply_inv : scaling -> Linalg.Vec.t -> Linalg.Vec.t

(** [lambda w] is the scaled variable [λ = W·z = W⁻¹·s]. *)
val lambda : scaling -> Linalg.Vec.t

(** [block_layout w] lists the [(offset, length)] of every cone block,
    in order.  Used to drive sparse block-wise application of the
    scaling. *)
val block_layout : scaling -> (int * int) list

(** [apply_inv_rows w offset rows] applies [W⁻¹] to the block starting
    at [offset], where [rows] holds the block's rows of a sparse matrix
    (each a column-sorted [(column, value)] list): the result rows are
    the corresponding rows of [W⁻¹·A].  Orthant blocks scale each row
    independently; SOC blocks form short linear combinations of the
    block's rows.
    @raise Invalid_argument if [offset] is not a block boundary or the
    row count does not match the block. *)
val apply_inv_rows :
  scaling -> int -> (int * float) list array -> (int * float) list array
