(* Generation configuration: which input representation to cover, how many
   sub-domains, table size for the logarithmic range reduction, degree
   search bounds, the limits of the generate/check/constrain loop, and
   which inputs of the representation to constrain. *)

type inputs =
  | Exhaustive  (** every finite pattern *)
  | Sampled of { count : int; seed : int }  (** seeded stratified sample *)

type t = {
  tin : Softfp.fmt;  (** largest input representation to support *)
  extra_bits : int;
      (** extra precision bits of the round-to-odd target (paper: 2) *)
  pieces : int;  (** sub-domains of the reduced domain (piecewise polys) *)
  table_bits : int;  (** log-family reduction table size (2^table_bits) *)
  min_degree : int;
  max_degree : int;
  max_rounds : int;  (** bound N of Algorithm 2 *)
  max_specials : int;  (** give up when more inputs need special casing *)
  inputs : inputs;
}

(** Output format: same exponent range, [extra_bits] more precision, to be
    used with the round-to-odd mode (RLibm-All construction). *)
let tout cfg = Softfp.with_extra_prec cfg.tin cfg.extra_bits

(** The reduced-width "mini" universe used for exhaustive end-to-end runs:
    13-bit inputs with 5 exponent bits; the round-to-odd target has 15
    bits.  Every finite input (7936 of them) is enumerated, and results
    are correct for all representations of 7..13 bits and all five
    standard rounding modes. *)
let mini_tin = Softfp.make_fmt ~ebits:5 ~prec:8

let default_mini =
  {
    tin = mini_tin;
    extra_bits = 2;
    pieces = 1;
    table_bits = 4;
    min_degree = 2;
    max_degree = 6;
    max_rounds = 24;
    max_specials = 8;
    inputs = Exhaustive;
  }

(** Per-function mini presets, from the registry.  Piece counts follow
    the shape of Table 1 (exp-family functions get extra pieces; the
    logarithms' table-based reduction already makes their reduced domain
    tiny), and the degree search starts where the family plausibly
    begins — the LP proves lower degrees infeasible anyway, at a cost. *)
let mini_for (f : Oracle.func) =
  let p = (Funcspec.get f).Funcspec.mini in
  { default_mini with pieces = p.Funcspec.pieces; min_degree = p.Funcspec.min_degree }

(** binary32 configuration (sampled generation; exhaustive float32
    enumeration is out of scope for this reproduction, see DESIGN.md).

    The exponential family needs many sub-domains at this scale: fp34
    rounding windows are ~2^-24 wide with arbitrarily thin one-sided
    clearance around the curve, so a single polynomial over the full
    reduced domain [0,1) cannot thread them — the artifact's exp2/exp/10^x
    range reductions use a 64-entry 2^(j/64) table for exactly this
    reason, and our sub-domain split is the equivalent mechanism. *)
let float32_for (f : Oracle.func) =
  let base =
    {
      tin = Softfp.binary32;
      extra_bits = 2;
      pieces = 1;
      table_bits = 7;
      min_degree = 4;
      max_degree = 6;
      max_rounds = 48;
      max_specials = 16;
      inputs = Exhaustive;
    }
  in
  let p = (Funcspec.get f).Funcspec.float32 in
  { base with pieces = p.Funcspec.pieces; min_degree = p.Funcspec.min_degree }
