(** Exact linear programming over free variables.

    Substitute for SoPlex (used by the RLibm artifact), following the
    shape of SoPlex's exact mode: pivot in floating point, then verify in
    exact arithmetic.  {!maximize} runs a two-phase primal simplex whose
    basis is held as a p x p matrix (p <= number of variables, however
    many rows there are): every row's slack is implicit, so an iteration
    costs a small dense solve in doubles plus one pass over the rows.
    Each double a pivot decision reads carries an error bound; a
    decision the bound cannot settle is taken on exact values (a
    fraction-free Bareiss solve over {!Bigint}).  The exact side never
    forms a rational: each exact value is a {!Bigint} numerator over a
    positive denominator (the basis view's Bareiss determinant times a
    row or objective scale), so signs, comparisons and the ratio test's
    cross products are integer products and no gcd is taken inside a
    phase.  {!Rat} appears only at the boundary: the input rows, the
    returned vertex and the Farkas/ray conversion.  The final verdict is
    accepted only with an exact certificate — a feasible vertex with
    non-negative multipliers, a Farkas combination, or a feasible point
    and an improving ray — so verdicts and vertices are exact.  The pivot
    rule (Dantzig pricing with a budget, then Bland) is fixed, so LPs
    with many optimal vertices always return the same one.

    On top of it, {!solve_interval_system} implements RLibm's
    low-dimension / many-constraint strategy: solve on a small working
    set of constraints and repeatedly add violated ones — the workhorse
    of polynomial generation. *)

(** {1 General simplex} *)

type status =
  | Optimal of Rat.t array * Rat.t
      (** primal solution (free variables) and objective value *)
  | Infeasible
  | Unbounded

(** [maximize ~obj ~rows] solves

    {v max obj . x   s.t.   a_i . x <= b_i  for (a_i, b_i) in rows v}

    over free (sign-unrestricted) variables [x].  Every [a_i] must have
    the same length as [obj]. *)
val maximize : obj:Rat.t array -> rows:(Rat.t array * Rat.t) array -> status

(** What one solve did. *)
type stats = {
  float_pivots : int;  (** pivots decided on doubles alone *)
  exact_pivots : int;
      (** pivots where some decision needed exact values (degenerate
          ties, ill-conditioned bases) *)
  certified : bool;
      (** the verdict's exact certificate checked — always [true] in a
          returned record: a solve whose final verdict fails its check
          even after exact pivoting raises [Failure] instead *)
  certificate : string;  (** ["optimality"], ["farkas"] or ["ray"] *)
  rows : int;
  seconds : float;  (** wall-clock time of the solve *)
  cert_bits : int;  (** largest integer of the certificate, in bits *)
}

(** [maximize_stats] is {!maximize} plus the solve's {!stats}.  Both
    emit a Debug event carrying the stats ([lp.solved] for optimal
    solves, [lp.infeasible] / [lp.unbounded] otherwise), with
    [pivots_cum] the process-wide pivot count and [maxbits] = [cert_bits]. *)
val maximize_stats :
  obj:Rat.t array -> rows:(Rat.t array * Rat.t) array -> status * stats

(** {1 RLibm-style interval systems} *)

(** A single polynomial-output constraint: the polynomial evaluated (in
    exact arithmetic) at [x] must land in [[lo, hi]]. *)
type point = { x : Rat.t; lo : Rat.t; hi : Rat.t }

type system_result =
  | Sat of Rat.t array * int list
      (** coefficients (in the order of [powers]) and the final working-set
          indices — feed them back through [initial_working] to warm-start
          the next solve after a small perturbation of the system *)
  | Unsat

(** [solve_interval_system ~powers points] finds coefficients [c] such
    that for every point, [lo <= sum_k c_k * x^powers_k <= hi], using
    constraint generation: an initial working subset is solved with a
    maximize-the-minimum-slack objective, all points are checked against
    the exact rational solution, the most violated ones are added, and the
    loop repeats until everything is satisfied or the working set becomes
    infeasible (which, because constraints only ever accumulate, proves
    the full system infeasible).

    [powers] lists the monomial exponents, e.g. [[|0;1;2;3|]] for a cubic
    with all terms.  [max_added_per_round] (default 16) bounds how many
    violated constraints join the working set per iteration.
    [initial_working] warm-starts the working set, typically from a
    previous [Sat]. *)
val solve_interval_system :
  ?max_added_per_round:int ->
  ?log:(string -> unit) ->
  ?initial_working:int list ->
  ?tilt:Rat.t array ->
  ?mono_bits:int ->
  powers:int array ->
  point array ->
  system_result

(** [mono_bits] rounds each monomial [x^k] to that many significant bits
    before building the LP (default: exact).  This keeps the exact
    certificates small when [x] has a long mantissa; the RLibm pipeline
    can afford it because candidate acceptance is decided by empirical
    double evaluation, never by the LP itself. *)

(** [tilt] (same length as [powers]) adds a tiny linear term over the
    coefficients to the maximize-delta objective, selecting different
    near-optimal vertices; the generation loop randomizes it to search for
    candidates whose double-precision evaluation satisfies constraints the
    default vertex misses. *)

(** {2 Instances and replay} *)

(** The arguments of one interval-system solve, monomials included. *)
type instance = {
  powers : int array;
  points : point array;
  monos : Rat.t array array;
      (** [monos.(i).(k)]: the value of [x_i]{^ [powers.(k)]} the LP
          uses (possibly rounded, see [mono_bits]) *)
  monos_f : float array array;  (** the nearest doubles of [monos] *)
  initial_working : int list;
  tilt : Rat.t array option;
  max_added_per_round : int;
}

(** [instance ~powers points] computes the monomials of [points] (exact
    powers, rounded to [mono_bits] bits when given) and packs the
    arguments of {!solve_interval_system} as an instance. *)
val instance :
  ?max_added_per_round:int ->
  ?initial_working:int list ->
  ?tilt:Rat.t array ->
  ?mono_bits:int ->
  powers:int array ->
  point array ->
  instance

(** [float_monomial ~bits x k] is [x]{^ k} for a double [x] and [k >= 0],
    rounded toward zero to [bits] significant bits exactly as
    [~mono_bits:bits] rounds it, with its nearest double.  It works on
    the integer power of the significand, so a caller that solves many
    systems over the same inputs (Algorithm-2 rounds, degree escalation)
    builds its monomial table once and slices it into each {!instance}. *)
val float_monomial : bits:int -> float -> int -> Rat.t * float

(** [solve_system inst] solves an instance: {!solve_interval_system} is
    [solve_system (instance ...)]. *)
val solve_system : ?log:(string -> unit) -> instance -> system_result

(** [with_recorder f body] runs [body], passing every {!solve_system}
    call it makes (on any domain) to [f] first. *)
val with_recorder : (instance -> unit) -> (unit -> 'a) -> 'a

(** [solve_instance inst] re-runs a recorded call; [maximize] swaps the
    LP engine (default {!maximize}), e.g. for a differential check. *)
val solve_instance :
  ?maximize:(obj:Rat.t array -> rows:(Rat.t array * Rat.t) array -> status) ->
  ?log:(string -> unit) ->
  instance ->
  system_result

(** [eval_poly ~powers coeffs x] is the exact rational value
    [sum_k coeffs_k * x^powers_k]. *)
val eval_poly : powers:int array -> Rat.t array -> Rat.t -> Rat.t
