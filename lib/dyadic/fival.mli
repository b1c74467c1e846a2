(** Outward-rounded interval arithmetic in native doubles.

    The oracle's first level: each operation is computed in the
    hardware's round-to-nearest and the result's endpoints are moved one
    ulp outward ([Float.pred] / [Float.succ]), so the interval always
    contains the exact result of the operation applied to any points of
    the operands.  Widths grow by a few ulps per operation — ample for
    targets of a few dozen bits, at a few nanoseconds per operation
    instead of the Bigint arithmetic of {!Ival}.  Overflow yields
    infinite endpoints, which callers treat as "no information". *)

type t = private { lo : float; hi : float }

(** [make lo hi] requires [lo <= hi]. *)
val make : float -> float -> t

(** Degenerate (exact) interval of a double. *)
val point : float -> t

(** [\[-inf, +inf\]]: what a kernel returns outside its range. *)
val entire : t

(** The tightest double interval around a dyadic interval. *)
val of_ival : Ival.t -> t

(** Exact rational endpoints.
    @raise Invalid_argument on an infinite endpoint. *)
val to_rats : t -> Rat.t * Rat.t

(** Upper bound of [|x|] over the interval. *)
val mag : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero when the divisor interval contains zero. *)
val div : t -> t -> t

(** Scaling by [2^k] (exact unless it overflows or leaves the normal
    range, widened either way). *)
val mul_2exp : t -> int -> t

(** [widen a e] grows the interval by the absolute bound [e >= 0] on both
    sides. *)
val widen : t -> float -> t
