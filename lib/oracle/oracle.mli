(** Correctly rounded oracle for the registered elementary functions.

    Substitute for the MPFR-based oracle (and for the precomputed oracle
    files of the artifact).  {!round_with} settles [f x] at the first of
    five levels that gives an unambiguous answer:

    + {b Range shortcut} (exponentials): [x log2_scale] beyond the
      format's overflow or underflow threshold gives the infinity/largest
      finite or zero/smallest subnormal of the mode.
    + {b Near-one rule} (exponentials, formats with [prec <= 56]): when
      [0 < |x log2_scale| < 2^-(prec+4)], [f x] lies strictly inside the
      rounding cell next to 1 on the side of [x]'s sign, nearer to 1 than
      any rounding boundary, so it rounds as [1 +- 2^-61] does.
    + {b First level}: the registry's [fast_enclosure] evaluates [f x] as
      an outward-rounded double interval ({!Fival}, relative width about
      2^-45, 1-2 us).  Rounding is monotone, so when both endpoints round
      to the same pattern, that pattern is the answer.  It applies only
      when [x] is exactly a double, and never settles an enclosure that
      contains zero.
    + {b Exact values}, which no enclosure can settle in every mode:
      detected algebraically.  By the Lindemann–Weierstrass and
      Gelfond–Schneider theorems, [exp x] is rational only at [x = 0],
      [2^x]/[10^x] only at integer [x], [log x] only at [x = 1], and
      [log2 x]/[log10 x] only at exact powers of the base.
    + {b Ziv loop}: Bigint dyadic enclosures ({!Ival}) at 80, 128, 192,
      ... bits until the enclosure rounds unambiguously.

    Inputs fall back past the first level when [f x] is within about
    2^-45 (relative) of a rounding boundary of the target — exact values
    above all, which land on a boundary in round-to-odd and the directed
    modes — when [x] is not a double, when the format is so precise
    ([prec] around 45 and above) that no double interval separates the
    boundaries, and when [f x] leaves the double range.  The result is
    the same at every level; {!Reference} is the path without the
    near-one rule and the first level, kept for differential tests.

    All per-function knowledge (domains, exact-value rules, enclosure
    kernels, reduction families, presets) lives in the {!Funcspec}
    registry; this module re-exports the function type and wraps the
    registry's closures with the function-agnostic Ziv machinery. *)

type func = Funcspec.func = Exp | Exp2 | Exp10 | Log | Log2 | Log10

val all : func list
val name : func -> string
val of_name : string -> func option

(** [domain_ok f x]: [x] is in the open domain of [f] (positive reals for
    the logarithms, all rationals otherwise). *)
val domain_ok : func -> Rat.t -> bool

(** [exact_value f x] is [Some y] when [f x] is exactly the rational [y]. *)
val exact_value : func -> Rat.t -> Rat.t option

(** [enclosure f x ~prec] is a rigorous interval around [f x] whose width
    is approximately [2^-prec] (absolute, relative to the natural scale of
    the reduced computation).
    @raise Invalid_argument when [x] is outside the domain, or when the
    result's binary exponent is astronomically large (callers must use
    {!correctly_round}, which short-circuits those cases). *)
val enclosure : func -> Rat.t -> prec:int -> Ival.t

(** [correctly_round f x ~fmt ~mode] is the correctly rounded result of
    [f x] in the given format and rounding mode, handling overflow,
    underflow and exactly representable results.
    @raise Invalid_argument when [x] is outside the domain of [f]. *)
val correctly_round :
  func -> Rat.t -> fmt:Softfp.fmt -> mode:Softfp.mode -> Softfp.bits

(** A rounder memoizes the enclosures of one [f x], making it cheap to
    round the same value into many formats and rounding modes — the access
    pattern of the multi-representation verification harness. *)
type rounder

(** @raise Invalid_argument when [x] is outside the domain of [f]. *)
val make_rounder : func -> Rat.t -> rounder

val round_with : rounder -> fmt:Softfp.fmt -> mode:Softfp.mode -> Softfp.bits

(** Process-wide counts of the level that settled each {!round_with} /
    {!correctly_round} call, in [Atomic] counters: deterministic work
    counters for traces and bench rows. *)
module Levels : sig
  type t = {
    shortcut : int;  (** range shortcut *)
    near_one : int;  (** near-one rule *)
    first_level : int;  (** double-interval first level *)
    exact : int;  (** exact value *)
    ziv : (int * int) list;  (** (Ziv precision, settled there) *)
  }

  val read : unit -> t

  (** [diff later earlier]. *)
  val diff : t -> t -> t

  (** Calls counted. *)
  val total : t -> int

  (** Named counts, Ziv levels as ["ziv_<bits>"]. *)
  val fields : t -> (string * int) list
end

(** The oracle without the near-one rule and the first level (range
    shortcut, exact value, Ziv loop), counting nothing: the reference
    the tests compare the full path against. *)
module Reference : sig
  val round_with :
    rounder -> fmt:Softfp.fmt -> mode:Softfp.mode -> Softfp.bits

  val correctly_round :
    func -> Rat.t -> fmt:Softfp.fmt -> mode:Softfp.mode -> Softfp.bits
end

(** [float64 f x] is the round-to-nearest-even double result of [f x] for a
    finite double [x] in the domain — a drop-in correctly rounded scalar
    reference for tests and for range-reduction constants. *)
val float64 : func -> float -> float

(** [ln2 ~prec] and [ln10 ~prec]: cached enclosures of the constants. *)
val ln2 : prec:int -> Ival.t

val ln10 : prec:int -> Ival.t
