(* Exact linear programming over free variables — a small-basis simplex
   that pivots in doubles and certifies its verdict in exact integer
   arithmetic — plus the RLibm-style constraint-generation driver for
   interval systems. *)

module R = Rat
module Z = Bigint

type status = Optimal of Rat.t array * Rat.t | Infeasible | Unbounded

type stats = {
  float_pivots : int;
  exact_pivots : int;
  certified : bool;
  certificate : string;
  rows : int;
  seconds : float;
  cert_bits : int;
}

let pivot_count = Atomic.make 0

(* ---------- exact integer kernels ---------- *)

(* [l / d] for a positive [d] that divides [l]: a shift when [d] is a
   power of two, as every row scale of a dyadic LP is. *)
let div_exact l d =
  let t = Z.trailing_zeros d in
  if Z.numbits d = t + 1 then Z.shift_right l t else Z.div l d

(* Least common multiple of two positive integers. *)
let lcm a b =
  if Z.equal a b || Z.is_one b then a
  else if Z.is_one a then b
  else Z.mul a (div_exact b (Z.gcd a b))

(* Scale a vector of rationals by the positive lcm of its denominators. *)
let lcm_dens (v : R.t array) =
  Array.fold_left (fun l q -> lcm l (R.den q)) Z.one v

let to_integers (v : R.t array) =
  let l = lcm_dens v in
  Array.map (fun q -> Z.mul (R.num q) (div_exact l (R.den q))) v

let dot_z a x =
  let acc = ref Z.zero in
  Array.iteri
    (fun j aj -> if not (Z.is_zero aj) then acc := Z.add !acc (Z.mul aj x.(j)))
    a;
  !acc

(* Bareiss fraction-free elimination of the p x p integer system
   [mat] X = rhs_k for every right-hand side in [rhs].  Returns the
   positive common denominator D = |det mat| and the integer numerators
   X_k = D * mat^-1 rhs_k, or [None] if [mat] is singular. *)
let bareiss_solve (mat : Z.t array array) (rhs : Z.t array list) =
  let p = Array.length mat in
  let a =
    Array.init p (fun i ->
        Array.append (Array.copy mat.(i))
          (Array.of_list (List.map (fun r -> r.(i)) rhs)))
  in
  let w = p + List.length rhs in
  let prev = ref Z.one in
  let rec eliminate k =
    if k >= p then true
    else
      let rec find r =
        if r >= p then None
        else if Z.is_zero a.(r).(k) then find (r + 1)
        else Some r
      in
      match find k with
      | None -> false
      | Some r ->
          let t = a.(r) in
          a.(r) <- a.(k);
          a.(k) <- t;
          let piv = a.(k).(k) in
          for i = k + 1 to p - 1 do
            let f = a.(i).(k) in
            for j = k + 1 to w - 1 do
              a.(i).(j) <-
                Z.div (Z.sub (Z.mul piv a.(i).(j)) (Z.mul f a.(k).(j))) !prev
            done;
            a.(i).(k) <- Z.zero
          done;
          prev := piv;
          eliminate (k + 1)
  in
  if not (eliminate 0) then None
  else begin
    (* The last Bareiss pivot is the determinant (up to the row swaps'
       sign); back substitution with it stays in the integers. *)
    let det = if p = 0 then Z.one else a.(p - 1).(p - 1) in
    let flip = Z.sign det < 0 in
    let sols =
      List.mapi
        (fun c _ ->
          let x = Array.make p Z.zero in
          for j = p - 1 downto 0 do
            let acc = ref (Z.mul det a.(j).(p + c)) in
            for l = j + 1 to p - 1 do
              acc := Z.sub !acc (Z.mul a.(j).(l) x.(l))
            done;
            x.(j) <- Z.div !acc a.(j).(j)
          done;
          if flip then Array.map Z.neg x else x)
        rhs
    in
    Some (Z.abs det, sols)
  end

let transpose mat =
  let p = Array.length mat in
  Array.init p (fun i -> Array.init p (fun j -> mat.(j).(i)))

(* ---------- certificates ----------

   The problem in integer form: row i of [az]/[bz] is a_i, b_i scaled by
   a positive integer, [cz] is c scaled likewise.  Each check recomputes
   its claim from these rows alone. *)

type exact_lp = {
  n : int;
  az : Z.t array array;
  bz : Z.t array;
  cz : Z.t array;
}

(* x = xs / d satisfies every row. *)
let primal_feasible lp (d, xs) =
  let ok = ref true in
  Array.iteri
    (fun i a ->
      if !ok && Z.compare (dot_z a xs) (Z.mul lp.bz.(i) d) > 0 then ok := false)
    lp.az;
  !ok

(* Row combination y^T [A | b] of non-negative multipliers [y]. *)
let combine lp y =
  let v = Array.make lp.n Z.zero and rhs = ref Z.zero in
  let nonneg = ref true in
  Array.iteri
    (fun i yi ->
      if Z.sign yi < 0 then nonneg := false
      else if not (Z.is_zero yi) then begin
        Array.iteri
          (fun j aij -> v.(j) <- Z.add v.(j) (Z.mul yi aij))
          lp.az.(i);
        rhs := Z.add !rhs (Z.mul yi lp.bz.(i))
      end)
    y;
  (!nonneg, v, !rhs)

(* Optimality: x feasible, y >= 0 with y^T A = dy * c and y.b = dy * c.x,
   so weak duality makes c.x the maximum. *)
let check_optimal lp (d, xs) (dy, y) =
  primal_feasible lp (d, xs)
  &&
  let nonneg, v, yb = combine lp y in
  nonneg
  && Array.for_all2 (fun vj cj -> Z.equal vj (Z.mul dy cj)) v lp.cz
  && Z.equal (Z.mul yb d) (Z.mul dy (dot_z lp.cz xs))

(* Farkas: y >= 0, y^T A = 0 and y.b < 0 — no x satisfies every row. *)
let check_farkas lp y =
  let nonneg, v, yb = combine lp y in
  nonneg && Array.for_all Z.is_zero v && Z.sign yb < 0

(* Unboundedness: a feasible x and a ray r with A r <= 0 and c.r > 0. *)
let check_ray lp x ray =
  primal_feasible lp x
  && Array.for_all (fun a -> Z.sign (dot_z a ray) <= 0) lp.az
  && Z.sign (dot_z lp.cz ray) > 0

let max_bits zs =
  List.fold_left (fun acc z -> Stdlib.max acc (Z.numbits z)) 0 zs

(* ---------- doubles with error bounds ----------

   Every float the pivoting decides on carries a bound on its distance
   from the exact value.  A decision whose outcome the bound cannot
   settle (a sign, a comparison) is taken on the exact value instead, so
   the float pivots make exactly the choices exact pivots would. *)

type ap = { v : float; e : float }

let eps = epsilon_float

let ap_exact v = { v; e = 0.0 }

(* The double nearest a rational is within half an ulp of it (or of the
   smallest subnormal, on underflow). *)
let ap_of_rat q =
  if R.is_zero q then ap_exact 0.0
  else
    let v = R.to_float q in
    { v; e = Float.max (Float.abs v *. eps) 5e-324 }

let ap_add a b =
  let v = a.v +. b.v in
  { v; e = a.e +. b.e +. (Float.abs v *. eps) }

let ap_sub a b = ap_add a { b with v = -.b.v }
let ap_neg a = { a with v = -.a.v }

(* Products of error terms: an exactly zero factor contributes nothing,
   even against an unbounded error. *)
let ( *! ) x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

let ap_mul a b =
  let v = a.v *. b.v in
  {
    v;
    e =
      (Float.abs a.v *! b.e) +. (Float.abs b.v *! a.e) +. (a.e *! b.e)
      +. (Float.abs v *. eps);
  }

(* [Some sign] when the bound settles it (a safety factor of 2 covers
   the rounding of the bound itself), [None] otherwise. *)
let ap_sign a =
  if a.e = 0.0 then Some (Float.compare a.v 0.0)
  else if a.v > 2.0 *. a.e then Some 1
  else if a.v < -2.0 *. a.e then Some (-1)
  else None

(* Gauss-Jordan inverse with partial pivoting and a uniform bound on the
   error of its entries, from the residual I - G X (Newton-Schulz style
   bound: |X - G^-1| <= |X| r / (1 - r)) plus the rounding of G's own
   entries.  [None] when the bound is useless. *)
let invert_float (g : float array array) =
  let p = Array.length g in
  let a = Array.map Array.copy g in
  let inv =
    Array.init p (fun i -> Array.init p (fun j -> if i = j then 1.0 else 0.0))
  in
  let ok = ref true in
  for k = 0 to p - 1 do
    if !ok then begin
      let best = ref k in
      for r = k + 1 to p - 1 do
        if Float.abs a.(r).(k) > Float.abs a.(!best).(k) then best := r
      done;
      if a.(!best).(k) = 0.0 then ok := false
      else begin
        let swap (m : float array array) =
          let t = m.(k) in
          m.(k) <- m.(!best);
          m.(!best) <- t
        in
        swap a;
        swap inv;
        let piv = a.(k).(k) in
        for j = 0 to p - 1 do
          a.(k).(j) <- a.(k).(j) /. piv;
          inv.(k).(j) <- inv.(k).(j) /. piv
        done;
        for r = 0 to p - 1 do
          if r <> k then begin
            let f = a.(r).(k) in
            if f <> 0.0 then
              for j = 0 to p - 1 do
                a.(r).(j) <- a.(r).(j) -. (f *. a.(k).(j));
                inv.(r).(j) <- inv.(r).(j) -. (f *. inv.(k).(j))
              done
          end
        done
      end
    end
  done;
  if not !ok then None
  else begin
    let norm m =
      Array.fold_left
        (fun acc row ->
          Float.max acc (Array.fold_left (fun s v -> s +. Float.abs v) 0.0 row))
        0.0 m
    in
    let ng = norm g and nx = norm inv in
    let resid =
      Array.init p (fun i ->
          Array.init p (fun j ->
              let s = ref (if i = j then 1.0 else 0.0) in
              for l = 0 to p - 1 do
                s := !s -. (g.(i).(l) *. inv.(l).(j))
              done;
              !s))
    in
    let r = norm resid +. (4.0 *. float_of_int (p + 1) *. eps *. ng *. nx) in
    if not (r < 0.25 && Float.is_finite r) then None
    else
      let e = (nx *. r /. (1.0 -. r)) +. (4.0 *. nx *. nx *. ng *. eps) in
      Some (inv, 4.0 *. e)
  end

(* ---------- two-phase simplex on a small basis ----------

   The pivot rule is the textbook dense two-phase tableau's: standard
   form  A x+ - A x- + s - art = b  with an artificial for each row of
   negative b; Dantzig pricing (lowest column on ties) for a budget of
   64 + 8m iterations per phase, then Bland's rule; ratio-test ties go to
   the lowest basic column.  When an LP has many optimal vertices — and
   maximising delta with a degenerate window pins delta = 0 on a whole
   face — the vertex returned is the one this rule reaches, so the rule
   is part of the output.

   What changes is the representation.  Of the m basic columns at most n
   are structural; the others are slacks or artificials, unit vectors.
   With T the rows no basic unit column covers and S the basic
   structural columns, |T| = |S| = p <= n, and B^-1 reduces to the p x p
   matrix G = A[T, S]: solve G for the structural part, then each covered
   row is one residual.  An iteration costs O(p^3 + (m + n) p) flops
   instead of a pass over an m x (2n + m) tableau of rationals.

   Each quantity a decision reads (basic values, reduced costs, the
   entering column) is a double with an error bound, backed by an exact
   value computed on demand: the exact p x p solves (fraction-free,
   Bareiss) run only in iterations where some bound cannot settle a sign
   or a comparison, typically a degenerate tie.  Such an iteration counts
   as an exact pivot, the others as float pivots.  The final basis is
   then certified exactly (see [certify_optimal] and friends); should a
   certificate fail, the phase re-runs with every decision exact.

   The exact side works on the integer rows (row i scaled by lz_i) and
   never forms a rational: each exact value is an integer numerator over
   a positive denominator that is a product of the view's Bareiss
   determinant and a row or objective scale, so signs, comparisons and
   the ratio test's cross products are integer products, with no gcd. *)

type col = Xp of int | Xm of int | Slack of int | Art of int

type problem = {
  n : int;
  m : int;
  af : ap array array;
  bf : ap array;
  lz : Z.t array;  (* positive integer scale of each row *)
  ex : exact_lp;  (* rows scaled by [lz] *)
  real_cols : int;  (* 2n + m *)
  art_row : int array;  (* row of each artificial *)
}

let col_of pb j =
  if j < pb.n then Xp j
  else if j < 2 * pb.n then Xm (j - pb.n)
  else if j < pb.real_cols then Slack (j - (2 * pb.n))
  else Art pb.art_row.(j - pb.real_cols)

(* A column of [A | I | -E | b], entry by entry: bounded double, and
   exactly, scaled to the row's integers. *)
type column = { cf : int -> ap; cz : int -> Z.t }

let column pb = function
  | Xp k -> { cf = (fun i -> pb.af.(i).(k)); cz = (fun i -> pb.ex.az.(i).(k)) }
  | Xm k ->
      {
        cf = (fun i -> ap_neg pb.af.(i).(k));
        cz = (fun i -> Z.neg pb.ex.az.(i).(k));
      }
  | Slack r ->
      {
        cf = (fun i -> ap_exact (if i = r then 1.0 else 0.0));
        cz = (fun i -> if i = r then pb.lz.(r) else Z.zero);
      }
  | Art r ->
      {
        cf = (fun i -> ap_exact (if i = r then -1.0 else 0.0));
        cz = (fun i -> if i = r then Z.neg pb.lz.(r) else Z.zero);
      }

let rhs_column pb = { cf = (fun i -> pb.bf.(i)); cz = (fun i -> pb.ex.bz.(i)) }

(* A phase objective: column j costs c_num.(j) / c_den exactly, and
   c_f.(j) is that cost as a bounded double. *)
type costs = { c_num : Z.t array; c_den : Z.t; c_f : ap array }

(* An exact value num / den, den > 0, never reduced. *)
type ex = { num : Z.t; den : Z.t }

let ex_zero = { num = Z.zero; den = Z.one }
let same_den a b = a.den == b.den || Z.equal a.den b.den

let ex_compare a b =
  let sa = Z.sign a.num and sb = Z.sign b.num in
  if sa <> sb then compare sa sb
  else if same_den a b then Z.compare a.num b.num
  else Z.compare (Z.mul a.num b.den) (Z.mul b.num a.den)

(* The ratio test's cross comparison of beta_r z_l with beta_l z_r.
   Both solves ran against one view, so a slot's denominator (d, or
   lz_i d on a covered row) is the same in each and cancels. *)
let cross_compare br zl bl zr =
  assert (same_den br zr && same_den bl zl);
  Z.compare (Z.mul br.num zl.num) (Z.mul bl.num zr.num)

(* A quantity: a bounded double and its exact value on demand. *)
type q = { f : ap; x : ex Lazy.t }

let q_zero = { f = ap_exact 0.0; x = Lazy.from_val ex_zero }

(* [beyond lo cutoff]: a lower bound clearly above a cutoff (with a
   margin for the rounding of the bounds themselves). *)
let beyond lo cutoff = lo > cutoff +. (Float.abs cutoff *. 1e-9)

let ap_lo a = a.v -. (2.0 *. a.e)
let ap_hi a = a.v +. (2.0 *. a.e)

let sign_q q =
  match ap_sign q.f with Some s -> s | None -> Z.sign (Lazy.force q.x).num

let compare_q a b =
  match ap_sign (ap_sub a.f b.f) with
  | Some s -> s
  | None -> ex_compare (Lazy.force a.x) (Lazy.force b.x)

(* The basis seen through its small matrix. *)
type view = {
  t_rows : int array;  (* T *)
  t_pos : int array;  (* per row: its index in T, or -1 *)
  s_cols : (int * int) array;  (* S: (variable k, +1 for x+ / -1 for x-) *)
  s_slot : int array;  (* slot of each S column *)
  unit_slot : int array;  (* per row: slot of its basic unit column, or -1 *)
  tau : int array;  (* per covered row: +1 slack, -1 artificial *)
  ginv : (float array array * float) option;  (* G^-1, entry error bound *)
  gz : Z.t array array Lazy.t;  (* G with rows scaled to integers *)
  on_exact : unit -> unit;  (* called before each exact solve *)
}

let make_view pb basis ~force_exact ~on_exact =
  let unit_slot = Array.make pb.m (-1) and tau = Array.make pb.m 1 in
  let s = ref [] in
  Array.iteri
    (fun slot j ->
      match col_of pb j with
      | Xp k -> s := (slot, (k, 1)) :: !s
      | Xm k -> s := (slot, (k, -1)) :: !s
      | Slack i -> unit_slot.(i) <- slot
      | Art i ->
          unit_slot.(i) <- slot;
          tau.(i) <- -1)
    basis;
  let s = Array.of_list (List.rev !s) in
  let s_cols = Array.map snd s in
  let t_rows =
    Array.of_list
      (List.filter (fun i -> unit_slot.(i) < 0) (List.init pb.m Fun.id))
  in
  assert (Array.length t_rows = Array.length s_cols);
  let t_pos = Array.make pb.m (-1) in
  Array.iteri (fun t i -> t_pos.(i) <- t) t_rows;
  let ginv =
    if force_exact then None
    else
      invert_float
        (Array.map
           (fun i ->
             Array.map
               (fun (k, sg) -> float_of_int sg *. pb.af.(i).(k).v)
               s_cols)
           t_rows)
  in
  {
    t_rows;
    t_pos;
    s_cols;
    s_slot = Array.map fst s;
    unit_slot;
    tau;
    ginv;
    gz =
      lazy
        (Array.map
           (fun i ->
             Array.map
               (fun (k, sg) ->
                 if sg > 0 then pb.ex.az.(i).(k) else Z.neg pb.ex.az.(i).(k))
               s_cols)
           t_rows);
    on_exact;
  }

let unsettled = { v = 0.0; e = infinity }

(* G^-1 entry (s, t) as a bounded double. *)
let ginv_at vw s t =
  match vw.ginv with
  | Some (inv, eg) -> { v = inv.(s).(t); e = eg }
  | None -> unsettled

(* Sum over S of sign * A[i, k] * z_s as a bounded double. *)
let row_s_f pb vw i (zf : ap array) =
  let acc = ref (ap_exact 0.0) in
  Array.iteri
    (fun s (k, sg) ->
      let aik = if sg > 0 then pb.af.(i).(k) else ap_neg pb.af.(i).(k) in
      acc := ap_add !acc (ap_mul aik zf.(s)))
    vw.s_cols;
  !acc

let bareiss_one mat rhs =
  match bareiss_solve mat [ rhs ] with
  | Some (d, [ x ]) -> (d, x)
  | _ -> invalid_arg "Lp: singular basis"

(* B z = v for a column v: one quantity per slot.  Exactly, Gz z_S = v_T
   gives z_s = zs / d, and a covered row's residual is
   (d v_i - sum_S sign az[i, k] zs) / (lz_i d). *)
let solve_column pb vw (v : column) =
  let p = Array.length vw.t_rows in
  let zf =
    Array.init p (fun s ->
        let acc = ref (ap_exact 0.0) in
        Array.iteri
          (fun t i -> acc := ap_add !acc (ap_mul (ginv_at vw s t) (v.cf i)))
          vw.t_rows;
        !acc)
  in
  let zx =
    lazy
      (vw.on_exact ();
       bareiss_one (Lazy.force vw.gz) (Array.map v.cz vw.t_rows))
  in
  let out = Array.make pb.m q_zero in
  Array.iteri
    (fun s slot ->
      out.(slot) <-
        {
          f = zf.(s);
          x =
            lazy
              (let d, z = Lazy.force zx in
               { num = z.(s); den = d });
        })
    vw.s_slot;
  Array.iteri
    (fun i slot ->
      if slot >= 0 then begin
        let tau = vw.tau.(i) in
        let f = ap_sub (v.cf i) (row_s_f pb vw i zf) in
        out.(slot) <-
          {
            f = (if tau > 0 then f else ap_neg f);
            x =
              lazy
                (let d, z = Lazy.force zx in
                 let acc = ref (Z.mul (v.cz i) d) in
                 Array.iteri
                   (fun s (k, sg) ->
                     let a = pb.ex.az.(i).(k) in
                     if not (Z.is_zero a) then begin
                       let t = Z.mul a z.(s) in
                       acc := if sg > 0 then Z.sub !acc t else Z.add !acc t
                     end)
                   vw.s_cols;
                 {
                   num = (if tau > 0 then !acc else Z.neg !acc);
                   den = Z.mul pb.lz.(i) d;
                 });
          }
      end)
    vw.unit_slot;
  out

(* sum over [rows] of A[i, k] pi_i as a bounded double. *)
let pi_dot_f pb pi rows k =
  List.fold_left
    (fun acc i -> ap_add acc (ap_mul pb.af.(i).(k) pi.(i).f))
    (ap_exact 0.0) rows

(* Simplex multipliers pi (B^T pi = c_B) of a view.  A covered row's
   multiplier is the constant tau_i c(unit column) = cpi_i / c_den.  The
   T rows solve G^T pi_T = h, h_s = c(S_s) - sign_s sum_covered
   A[i, k_s] pi_i; exactly, with L the lcm of the covered rows' scales
   and w_i = cpi_i L / lz_i, the integer system Gz^T u = d hz with
   hz_s = c_num(S_s) L - sign_s sum_covered az[i, k_s] w_i gives
   pi_i / lz_i = w_i / (c_den L) on covered rows and u_t / (d c_den L) on
   T rows. *)
type duals = {
  pi : q array;  (* per row *)
  live : int list;  (* rows where pi may be non-zero: covered, then T *)
  cov : (Z.t * Z.t array) Lazy.t;  (* L and w, per row *)
  tsol : (Z.t * Z.t array) Lazy.t;  (* d and u, per T index *)
}

let multipliers pb basis vw costs =
  let pi = Array.make pb.m q_zero and cpi = Array.make pb.m Z.zero in
  Array.iteri
    (fun i slot ->
      if slot >= 0 then begin
        let j = basis.(slot) in
        let c = costs.c_num.(j) in
        if not (Z.is_zero c) then begin
          let pos = vw.tau.(i) > 0 in
          cpi.(i) <- (if pos then c else Z.neg c);
          pi.(i) <-
            {
              f = (if pos then costs.c_f.(j) else ap_neg costs.c_f.(j));
              x = Lazy.from_val { num = cpi.(i); den = costs.c_den };
            }
        end
      end)
    vw.unit_slot;
  let covered =
    List.filter (fun i -> not (Z.is_zero cpi.(i))) (List.init pb.m Fun.id)
  in
  let cov =
    lazy
      (let l = List.fold_left (fun l i -> lcm l pb.lz.(i)) Z.one covered in
       let w = Array.make pb.m Z.zero in
       List.iter
         (fun i -> w.(i) <- Z.mul cpi.(i) (div_exact l pb.lz.(i)))
         covered;
       (l, w))
  in
  let s_col s = basis.(vw.s_slot.(s)) in
  let h_f =
    Array.mapi
      (fun s (k, sg) ->
        let acc = pi_dot_f pb pi covered k in
        ap_sub costs.c_f.(s_col s) (if sg > 0 then acc else ap_neg acc))
      vw.s_cols
  in
  let tsol =
    lazy
      (let l, w = Lazy.force cov in
       let hz =
         Array.mapi
           (fun s (k, sg) ->
             let acc =
               List.fold_left
                 (fun acc i ->
                   let a = pb.ex.az.(i).(k) in
                   if Z.is_zero a then acc else Z.add acc (Z.mul a w.(i)))
                 Z.zero covered
             in
             Z.sub
               (Z.mul costs.c_num.(s_col s) l)
               (if sg > 0 then acc else Z.neg acc))
           vw.s_cols
       in
       vw.on_exact ();
       bareiss_one (transpose (Lazy.force vw.gz)) hz)
  in
  Array.iteri
    (fun t i ->
      let acc = ref (ap_exact 0.0) in
      Array.iteri
        (fun s _ -> acc := ap_add !acc (ap_mul (ginv_at vw s t) h_f.(s)))
        vw.s_cols;
      pi.(i) <-
        {
          f = !acc;
          x =
            lazy
              (let d, u = Lazy.force tsol and l, _ = Lazy.force cov in
               {
                 num = Z.mul pb.lz.(i) u.(t);
                 den = Z.mul d (Z.mul costs.c_den l);
               });
        })
    vw.t_rows;
  { pi; live = covered @ Array.to_list vw.t_rows; cov; tsol }

(* Reduced cost z_j - c_j = pi . a_j - c_j of column j.  Exactly, over
   c_den L, times d once a T row contributes. *)
let reduced_cost pb vw costs du j =
  match col_of pb j with
  | (Xp k | Xm k) as cl ->
      let rows =
        List.filter (fun i -> not (Z.is_zero pb.ex.az.(i).(k))) du.live
      in
      let neg = match cl with Xm _ -> true | _ -> false in
      let f = pi_dot_f pb du.pi rows k in
      {
        f = ap_sub (if neg then ap_neg f else f) costs.c_f.(j);
        x =
          lazy
            (let l, w = Lazy.force du.cov in
             let t_rows, cov_rows =
               List.partition (fun i -> vw.t_pos.(i) >= 0) rows
             in
             let dot coef rows =
               List.fold_left
                 (fun acc i -> Z.add acc (Z.mul pb.ex.az.(i).(k) (coef i)))
                 Z.zero rows
             in
             let cov_sum = dot (fun i -> w.(i)) cov_rows in
             let signed s = if neg then Z.neg s else s in
             let c = Z.mul costs.c_num.(j) l and hl = Z.mul costs.c_den l in
             (* The T solve is an exact solve: it runs, and marks the
                pivot exact, only when a T row contributes. *)
             if t_rows = [] then { num = Z.sub (signed cov_sum) c; den = hl }
             else
               let d, u = Lazy.force du.tsol in
               let t_sum = dot (fun i -> u.(vw.t_pos.(i))) t_rows in
               let s = Z.add (Z.mul d cov_sum) t_sum in
               { num = Z.sub (signed s) (Z.mul d c); den = Z.mul d hl });
      }
  | Slack i -> du.pi.(i)
  | Art i ->
      {
        f = ap_sub (ap_exact 1.0) du.pi.(i).f;
        x =
          lazy
            (let p = Lazy.force du.pi.(i).x in
             { num = Z.sub p.den p.num; den = p.den });
      }

(* ----- one phase ----- *)

type phase_end =
  | Phase_optimal
  | Phase_unbounded of int  (* entering column with no blocking row *)

type counters = { mutable float_pivots : int; mutable exact_pivots : int }

(* Runs the phase from [basis] (slot -> basic column) until no column
   below [scan] prices in.  [costs] is the phase objective.  With
   [force_exact], every decision reads exact values. *)
let run_phase pb basis ~scan ~costs ~force_exact cnt =
  let budget = ref (64 + (8 * pb.m)) in
  let in_basis = Array.make (pb.real_cols + Array.length pb.art_row) false in
  Array.iter (fun j -> in_basis.(j) <- true) basis;
  let rec iterate () =
    let exact = ref false in
    let vw =
      make_view pb basis ~force_exact ~on_exact:(fun () -> exact := true)
    in
    let du = multipliers pb basis vw costs in
    let dantzig = !budget > 0 in
    if dantzig then decr budget;
    (* Dantzig: most negative reduced cost, lowest column on ties;
       Bland: lowest column with a negative reduced cost.  Columns whose
       bounds already place them above some other column's (or above 0)
       cannot win and are dropped before any exact value is read. *)
    let priced = ref [] in
    for j = scan - 1 downto 0 do
      if not in_basis.(j) then
        priced := (j, reduced_cost pb vw costs du j) :: !priced
    done;
    let candidates =
      if not dantzig then !priced
      else
        let cutoff =
          List.fold_left
            (fun acc (_, d) -> Float.min acc (ap_hi d.f))
            infinity !priced
        in
        List.filter (fun (_, d) -> not (beyond (ap_lo d.f) cutoff)) !priced
    in
    let rec price best = function
      | [] -> best
      | (j, d) :: rest ->
          if ap_lo d.f >= 0.0 || sign_q d >= 0 then price best rest
          else if not dantzig then Some (j, d)
          else (
            match best with
            | Some (_, db) when compare_q d db >= 0 -> price best rest
            | _ -> price (Some (j, d)) rest)
    in
    match price None candidates with
    | None -> Phase_optimal
    | Some (col, _) -> (
        let z = solve_column pb vw (column pb (col_of pb col)) in
        let beta = solve_column pb vw (rhs_column pb) in
        (* Ratio test beta_r / z_r over z_r > 0 (beta >= 0 throughout);
           ties to the lowest basic column.  Rows whose ratio is bounded
           below by some surely-eligible row's upper bound are dropped
           first. *)
        let cutoff = ref infinity in
        for r = 0 to pb.m - 1 do
          let zl = ap_lo z.(r).f in
          if zl > 0.0 then cutoff := Float.min !cutoff (ap_hi beta.(r).f /. zl)
        done;
        let leave = ref (-1) in
        for r = 0 to pb.m - 1 do
          let zh = ap_hi z.(r).f in
          let ratio_lo = Float.max 0.0 (ap_lo beta.(r).f) /. zh in
          (* [not (zh <= 0.0)] also keeps a NaN bound in play. *)
          if
            (not (zh <= 0.0))
            && (not (beyond ratio_lo !cutoff))
            && sign_q z.(r) > 0
          then
            if !leave < 0 then leave := r
            else begin
              let l = !leave in
              let cmp =
                match
                  ap_sign
                    (ap_sub (ap_mul beta.(r).f z.(l).f)
                       (ap_mul beta.(l).f z.(r).f))
                with
                | Some s -> s
                | None ->
                    cross_compare
                      (Lazy.force beta.(r).x) (Lazy.force z.(l).x)
                      (Lazy.force beta.(l).x) (Lazy.force z.(r).x)
              in
              if cmp < 0 || (cmp = 0 && basis.(r) < basis.(l)) then leave := r
            end
        done;
        if !leave < 0 then Phase_unbounded col
        else begin
          in_basis.(basis.(!leave)) <- false;
          in_basis.(col) <- true;
          basis.(!leave) <- col;
          if !exact then cnt.exact_pivots <- cnt.exact_pivots + 1
          else cnt.float_pivots <- cnt.float_pivots + 1;
          iterate ()
        end)
  in
  iterate ()

(* ----- certification of the final basis ----- *)

type verdict = V_optimal of (Z.t * Z.t array) | V_infeasible | V_unbounded
type cert = { verdict : verdict; bits : int }

(* The n x n matrix of the basis's tight rows (T) and the free variables
   it leaves non-basic (at 0): the vertex solves M x = r. *)
let vertex_system pb vw =
  let in_s = Array.make pb.n false in
  Array.iter (fun (k, _) -> in_s.(k) <- true) vw.s_cols;
  let free = List.filter (fun k -> not in_s.(k)) (List.init pb.n Fun.id) in
  let unit k = Array.init pb.n (fun j -> if j = k then Z.one else Z.zero) in
  let mat =
    Array.append
      (Array.map (fun i -> pb.ex.az.(i)) vw.t_rows)
      (Array.of_list (List.map unit free))
  in
  let rhs =
    Array.append
      (Array.map (fun i -> pb.ex.bz.(i)) vw.t_rows)
      (Array.make (List.length free) Z.zero)
  in
  (mat, rhs, Array.length vw.t_rows)

let certify_optimal pb vw =
  let mat, rhs, p = vertex_system pb vw in
  match
    (bareiss_solve mat [ rhs ], bareiss_solve (transpose mat) [ pb.ex.cz ])
  with
  | Some (d, [ xs ]), Some (dy, [ ys ]) ->
      (* Multipliers live on the tight rows; the free variables' entries
         must vanish, which the check's y^T A = c enforces. *)
      let y = Array.make pb.m Z.zero in
      Array.iteri (fun t i -> y.(i) <- ys.(t)) vw.t_rows;
      let free_zero = ref true in
      Array.iteri
        (fun k yk -> if k >= p && not (Z.is_zero yk) then free_zero := false)
        ys;
      if !free_zero && check_optimal pb.ex (d, xs) (dy, y) then
        Some
          {
            verdict = V_optimal (d, xs);
            bits = max_bits (d :: dy :: (Array.to_list xs @ Array.to_list ys));
          }
      else None
  | _ -> None

let rat_of_ex e = R.make e.num e.den

(* Phase 1 ended with a positive artificial: its multipliers are a Farkas
   combination (pi >= 0, pi^T A = 0, pi.b < 0). *)
let certify_infeasible pb pi =
  let y =
    Array.mapi
      (fun i q ->
        let e = Lazy.force q.x in
        R.make e.num (Z.mul e.den pb.lz.(i)))
      pi
  in
  let yz = to_integers y in
  if check_farkas pb.ex yz then
    Some { verdict = V_infeasible; bits = max_bits (Array.to_list yz) }
  else None

(* Phase 2 found a column with no blocking row: the basic point plus that
   column's edge direction. *)
let certify_unbounded pb vw col =
  let mat, rhs, _ = vertex_system pb vw in
  match bareiss_solve mat [ rhs ] with
  | Some (d, [ xs ]) ->
      let z = solve_column pb vw (column pb (col_of pb col)) in
      let ray = Array.make pb.n R.zero in
      Array.iteri
        (fun s (k, sg) ->
          let zs = rat_of_ex (Lazy.force z.(vw.s_slot.(s)).x) in
          ray.(k) <- (if sg > 0 then R.neg zs else zs))
        vw.s_cols;
      (match col_of pb col with
      | Xp k -> ray.(k) <- R.add ray.(k) R.one
      | Xm k -> ray.(k) <- R.sub ray.(k) R.one
      | Slack _ | Art _ -> ());
      let rz = to_integers ray in
      if check_ray pb.ex (d, xs) rz then
        Some
          {
            verdict = V_unbounded;
            bits = max_bits (d :: (Array.to_list xs @ Array.to_list rz));
          }
      else None
  | _ -> None

(* After phase 1, pivot every basic artificial (at value 0) out on the
   lowest column with a non-zero entry in its tableau row; a row with none
   is redundant and keeps its artificial.  These degenerate basis repairs
   are not simplex iterations and are not counted as pivots. *)
let drive_out_artificials pb basis =
  for r = 0 to pb.m - 1 do
    match col_of pb basis.(r) with
    | Art i ->
        let vw = make_view pb basis ~force_exact:true ~on_exact:ignore in
        (* Row r of B^-1 A is tau (a_j[i] - w . a_j[T]) with G^T w = g,
           g_s = sign_s A[i, k_s]; tau = -1 only flips signs.  On the
           integer rows, Gz^T u = d g' with g'_s = sign_s az[i, k_s] makes
           the entry (d cz_j[i] - u . cz_j[T]) / (d lz_i). *)
        let g =
          Array.map
            (fun (k, sg) ->
              if sg > 0 then pb.ex.az.(i).(k) else Z.neg pb.ex.az.(i).(k))
            vw.s_cols
        in
        let d, u = bareiss_one (transpose (Lazy.force vw.gz)) g in
        let nonzero j =
          let cz = (column pb (col_of pb j)).cz in
          let acc = ref (Z.mul d (cz i)) in
          Array.iteri
            (fun t it ->
              let c = cz it in
              if not (Z.is_zero c) then acc := Z.sub !acc (Z.mul u.(t) c))
            vw.t_rows;
          not (Z.is_zero !acc)
        in
        let rec find j =
          if j >= pb.real_cols then None
          else if nonzero j then Some j
          else find (j + 1)
        in
        (match find 0 with
        | Some j -> basis.(r) <- j
        | None -> ())
    | _ -> ()
  done

let solve ~obj ~rows =
  let n = Array.length obj and m = Array.length rows in
  Array.iter
    (fun (a, _) ->
      if Array.length a <> n then invalid_arg "Lp.maximize: row length")
    rows;
  let t0 = Unix.gettimeofday () in
  let a = Array.map fst rows and b = Array.map snd rows in
  let lz = Array.map (fun (a, b) -> lcm_dens (Array.append a [| b |])) rows in
  let scale l q = Z.mul (R.num q) (div_exact l (R.den q)) in
  let lc = lcm_dens obj in
  let pb =
    {
      n;
      m;
      af = Array.map (Array.map ap_of_rat) a;
      bf = Array.map ap_of_rat b;
      lz;
      ex =
        {
          n;
          az = Array.mapi (fun i ai -> Array.map (scale lz.(i)) ai) a;
          bz = Array.mapi (fun i bi -> scale lz.(i) bi) b;
          cz = Array.map (scale lc) obj;
        };
      real_cols = (2 * n) + m;
      art_row =
        Array.of_list
          (List.filter (fun i -> R.sign b.(i) < 0) (List.init m Fun.id));
    }
  in
  let cols = pb.real_cols + Array.length pb.art_row in
  (* Phase 2 maximises obj over x+ - x-; phase 1 maximises -(sum of
     artificials). *)
  let costs2 =
    let c_num = Array.make cols Z.zero in
    let c_f = Array.make cols (ap_exact 0.0) in
    for k = 0 to n - 1 do
      c_num.(k) <- pb.ex.cz.(k);
      c_num.(n + k) <- Z.neg pb.ex.cz.(k);
      c_f.(k) <- ap_of_rat obj.(k);
      c_f.(n + k) <- ap_of_rat (R.neg obj.(k))
    done;
    { c_num; c_den = lc; c_f }
  in
  let costs1 =
    {
      c_num =
        Array.init cols (fun j ->
            if j < pb.real_cols then Z.zero else Z.minus_one);
      c_den = Z.one;
      c_f =
        Array.init cols (fun j ->
            if j < pb.real_cols then ap_exact 0.0 else ap_of_rat R.minus_one);
    }
  in
  (* Initial basis: each row's slack, or its artificial when b_i < 0. *)
  let basis = Array.init m (fun i -> (2 * n) + i) in
  Array.iteri (fun r i -> basis.(i) <- pb.real_cols + r) pb.art_row;
  let cnt = { float_pivots = 0; exact_pivots = 0 } in
  let exact_view () = make_view pb basis ~force_exact:true ~on_exact:ignore in
  (* A phase whose verdict fails its certificate re-runs from where it
     stopped with every decision exact. *)
  let certified_phase ~scan ~costs ~certify =
    match certify (run_phase pb basis ~scan ~costs ~force_exact:false cnt) with
    | Some c -> Some c
    | None -> certify (run_phase pb basis ~scan ~costs ~force_exact:true cnt)
  in
  let phase2 () =
    certified_phase ~scan:pb.real_cols ~costs:costs2
      ~certify:(function
        | Phase_optimal -> certify_optimal pb (exact_view ())
        | Phase_unbounded col -> certify_unbounded pb (exact_view ()) col)
  in
  let cert =
    if Array.length pb.art_row = 0 then phase2 ()
    else begin
      (* Phase 1: feasible when no basic artificial stays positive,
         otherwise certified infeasible. *)
      let phase1 force_exact =
        match run_phase pb basis ~scan:cols ~costs:costs1 ~force_exact cnt with
        | Phase_unbounded _ -> assert false (* bounded above by 0 *)
        | Phase_optimal ->
            let vw = exact_view () in
            let beta = solve_column pb vw (rhs_column pb) in
            let positive = ref false in
            Array.iteri
              (fun r j ->
                match col_of pb j with
                | Art _ when sign_q beta.(r) > 0 -> positive := true
                | _ -> ())
              basis;
            if !positive then
              let du = multipliers pb basis vw costs1 in
              `Infeasible (certify_infeasible pb du.pi)
            else `Feasible
      in
      let feasible () =
        drive_out_artificials pb basis;
        phase2 ()
      in
      match phase1 false with
      | `Feasible -> feasible ()
      | `Infeasible (Some c) -> Some c
      | `Infeasible None -> (
          match phase1 true with `Feasible -> feasible () | `Infeasible c -> c)
    end
  in
  let cert =
    match cert with
    | Some c -> c
    | None -> failwith "Lp.maximize: no verdict survived exact certification"
  in
  let status, certificate =
    match cert.verdict with
    | V_infeasible -> (Infeasible, "farkas")
    | V_unbounded -> (Unbounded, "ray")
    | V_optimal (d, xs) ->
        let x = Array.map (fun xj -> R.make xj d) xs in
        let v = ref R.zero in
        Array.iteri
          (fun j cj ->
            if not (R.is_zero cj) then v := R.add !v (R.mul cj x.(j)))
          obj;
        (Optimal (x, !v), "optimality")
  in
  ignore
    (Atomic.fetch_and_add pivot_count (cnt.float_pivots + cnt.exact_pivots));
  ( status,
    {
      float_pivots = cnt.float_pivots;
      exact_pivots = cnt.exact_pivots;
      certified = true;
      certificate;
      rows = m;
      seconds = Unix.gettimeofday () -. t0;
      cert_bits = cert.bits;
    } )

let maximize_stats ~obj ~rows =
  let ((status, st) as r) = solve ~obj ~rows in
  (* Optimal solves keep the historical event name, which perf tooling
     counts; the other verdicts get their own. *)
  let name =
    match status with
    | Optimal _ -> "lp.solved"
    | Infeasible -> "lp.infeasible"
    | Unbounded -> "lp.unbounded"
  in
  Diag.event ~level:Diag.Debug name (fun () ->
      [
        ("rows", Diag.Int st.rows);
        ("pivots_cum", Diag.Int (Atomic.get pivot_count));
        ("maxbits", Diag.Int st.cert_bits);
        ("float_pivots", Diag.Int st.float_pivots);
        ("exact_pivots", Diag.Int st.exact_pivots);
        ("certified", Diag.Bool st.certified);
        ("certificate", Diag.String st.certificate);
        ("seconds", Diag.Float st.seconds);
      ]);
  r

let maximize ~obj ~rows = fst (maximize_stats ~obj ~rows)

(* ---------- RLibm interval systems ---------- *)

type point = { x : Rat.t; lo : Rat.t; hi : Rat.t }

type system_result = Sat of Rat.t array * int list | Unsat

let eval_poly ~powers coeffs x =
  let acc = ref R.zero in
  Array.iteri
    (fun k p -> acc := R.add !acc (R.mul coeffs.(k) (R.pow x p)))
    powers;
  !acc

(* Horner over precomputed monomials: the violation scan is the hot loop
   when the pipeline re-solves after every interval shrink. *)
let eval_monos monos coeffs =
  let acc = ref R.zero in
  Array.iteri (fun k m -> acc := R.add !acc (R.mul coeffs.(k) m)) monos;
  !acc

(* Two LP rows per point, with the min-slack variable delta appended:
   p(x) + delta <= hi   and   -p(x) + delta <= -lo. *)
let rows_of_point ~mono pt =
  let d = Array.length mono in
  let upper = Array.init (d + 1) (fun k -> if k < d then mono.(k) else R.one) in
  let lower =
    Array.init (d + 1) (fun k -> if k < d then R.neg mono.(k) else R.one)
  in
  [ (upper, pt.hi); (lower, R.neg pt.lo) ]

(* Round a rational to [bits] significant bits (toward zero).  Monomials
   of double-precision reduced inputs have up to 53*degree-bit
   denominators; carrying them exactly inflates the exact solves and
   certificates to thousands of bits.  Because the pipeline validates
   candidates by *empirical double evaluation* (and re-constrains on any
   miss), the LP may legally work with perturbed monomials — correctness
   never depends on them. *)
let round_bits q bits =
  if R.is_zero q then q
  else begin
    let m, e, _exact = R.approx q ~bits in
    R.mul_pow2 (R.of_bigint (if R.sign q < 0 then Bigint.neg m else m)) e
  end

(* The same rounding of x^k straight from a double's significand: with
   x = s 2^e, x^k = s^k 2^(ke), and rounding toward zero is a shift of
   |s^k|.  No rational is formed until the result. *)
let float_monomial ~bits x k =
  let q =
    if k = 0 then R.one
    else if x = 0.0 then R.zero
    else begin
      let fr, ex = Float.frexp x in
      let p = Z.pow (Z.of_int (int_of_float (Float.ldexp fr 53))) k in
      let drop = Stdlib.max 0 (Z.numbits p - bits) in
      let m =
        if drop = 0 then p
        else
          let t = Z.shift_right (Z.abs p) drop in
          if Z.sign p < 0 then Z.neg t else t
      in
      R.mul_pow2 (R.of_bigint m) ((k * (ex - 53)) + drop)
    end
  in
  (q, R.to_float q)

type instance = {
  powers : int array;
  points : point array;
  monos : Rat.t array array;
  monos_f : float array array;
  initial_working : int list;
  tilt : Rat.t array option;
  max_added_per_round : int;
}

let instance ?(max_added_per_round = 16) ?(initial_working = []) ?tilt
    ?mono_bits ~powers points =
  let monos =
    Array.map
      (fun pt ->
        Array.map
          (fun p ->
            let m = R.pow pt.x p in
            match mono_bits with None -> m | Some b -> round_bits m b)
          powers)
      points
  in
  {
    powers;
    points;
    monos;
    monos_f = Array.map (Array.map R.to_float) monos;
    initial_working;
    tilt;
    max_added_per_round;
  }

let recorder : (instance -> unit) option Atomic.t = Atomic.make None

let with_recorder f body =
  let prev = Atomic.exchange recorder (Some f) in
  Fun.protect ~finally:(fun () -> Atomic.set recorder prev) body

let solve_instance ?(maximize = maximize) ?(log = fun _ -> ())
    {
      powers;
      points;
      monos;
      monos_f;
      initial_working;
      tilt;
      max_added_per_round;
    } =
  let d = Array.length powers in
  let n_points = Array.length points in
  if n_points = 0 then Sat (Array.make d R.zero, [])
  else begin
    (* Float shadows of the system: the per-round violation scan runs in
       doubles, with exact confirmation only for points near an interval
       boundary.  A point misclassified by less than the float margin is
       immaterial: the pipeline's acceptance criterion is the *double*
       evaluation of the compiled scheme, and false positives merely add a
       harmless constraint. *)
    let lo_f = Array.map (fun pt -> R.to_float pt.lo) points in
    let hi_f = Array.map (fun pt -> R.to_float pt.hi) points in
    let working : (int, int) Hashtbl.t = Hashtbl.create 64 in
    (* value = round at which the constraint joined *)
    List.iter
      (fun idx -> if idx >= 0 && idx < n_points then Hashtbl.replace working idx 0)
      initial_working;
    if Hashtbl.length working < d + 1 then begin
      (* Seed: spread evenly over the x-sorted points. *)
      let order = Array.init n_points (fun i -> i) in
      (* Rounding to doubles is monotone, so distinct doubles order the
         points; only equal ones need the exact comparison. *)
      let xf = Array.map (fun pt -> R.to_float pt.x) points in
      Array.sort
        (fun i j ->
          let c = Float.compare xf.(i) xf.(j) in
          if c <> 0 then c else R.compare points.(i).x points.(j).x)
        order;
      let initial = Stdlib.min n_points (Stdlib.max (2 * (d + 1)) 8) in
      for k = 0 to initial - 1 do
        let idx = order.(k * (n_points - 1) / Stdlib.max 1 (initial - 1)) in
        Hashtbl.replace working idx 0
      done
    end;
    (* Objective: maximize delta, the minimum slack; an optional tiny tilt
       on the coefficients picks different near-optimal vertices, which the
       generation loop uses to search for candidates whose *double*
       evaluation satisfies constraints the vertex at pure max-delta
       misses. *)
    let obj =
      Array.init (d + 1) (fun k ->
          if k = d then R.one
          else match tilt with Some t -> t.(k) | None -> R.zero)
    in
    let obj_pure = Array.init (d + 1) (fun k -> if k < d then R.zero else R.one) in
    let delta_nonneg =
      ( Array.init (d + 1) (fun k -> if k < d then R.zero else R.minus_one),
        R.zero )
    in
    let eval_f coeffs_f idx =
      let m = monos_f.(idx) in
      let acc = ref 0.0 in
      for k = 0 to d - 1 do
        acc := !acc +. (coeffs_f.(k) *. m.(k))
      done;
      !acc
    in
    let exact_violation coeffs idx =
      let pt = points.(idx) in
      let v = eval_monos monos.(idx) coeffs in
      let worst = R.max (R.sub pt.lo v) (R.sub v pt.hi) in
      if R.sign worst > 0 then Some (R.to_float worst) else None
    in
    (* Slack-constraint pruning keeps the working LP small.  Each
       constraint may be pruned at most once (the ratchet below): without
       it the working set can cycle — prune A, vertex moves, A violated,
       re-add A, prune B, vertex moves back ... — and with it the classic
       monotone-growth termination argument still applies. *)
    let max_working = 4 * (d + 2) in
    let pruned_once : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let rec loop round =
      let prune_allowed = round <= 40 in
      let rows =
        Hashtbl.fold
          (fun idx _ acc -> rows_of_point ~mono:monos.(idx) points.(idx) @ acc)
          working [ delta_nonneg ]
        |> Array.of_list
      in
      let solved =
        match maximize ~obj ~rows with
        | Unbounded when tilt <> None ->
            (* The tilt direction is unbounded on this working subset;
               fall back to the pure objective for this round. *)
            maximize ~obj:obj_pure ~rows
        | r -> r
      in
      match solved with
      | Infeasible ->
          log
            (Printf.sprintf
               "lp: infeasible with %d working constraints (round %d)"
               (Hashtbl.length working) round);
          Unsat
      | Unbounded ->
          (* Cannot happen: delta is bounded by the narrowest interval. *)
          assert false
      | Optimal (sol, _delta) ->
          let coeffs = Array.sub sol 0 d in
          let coeffs_f = Array.map R.to_float coeffs in
          (* Scan in floats; confirm suspects exactly. *)
          let violations = ref [] in
          for idx = 0 to n_points - 1 do
            if not (Hashtbl.mem working idx) then begin
              let v = eval_f coeffs_f idx in
              let scale =
                Float.max 1e-300
                  (Float.max (Float.abs v)
                     (Float.max (Float.abs lo_f.(idx)) (Float.abs hi_f.(idx))))
              in
              let tol = 1e-12 *. scale in
              let dist = Float.max (lo_f.(idx) -. v) (v -. hi_f.(idx)) in
              if dist > tol then violations := (dist, idx) :: !violations
              else if dist > -.tol then
                match exact_violation coeffs idx with
                | Some w -> violations := (w, idx) :: !violations
                | None -> ()
            end
          done;
          (match !violations with
          | [] ->
              Sat (coeffs, Hashtbl.fold (fun i _ acc -> i :: acc) working [])
          | vs ->
              let vs =
                List.sort (fun (a, _) (b, _) -> Float.compare b a) vs
              in
              let rec take k = function
                | (_, idx) :: rest when k > 0 ->
                    Hashtbl.replace working idx round;
                    take (k - 1) rest
                | _ -> ()
              in
              take max_added_per_round vs;
              (* Prune stale constraints with visibly positive slack. *)
              if prune_allowed && Hashtbl.length working > max_working then begin
                let stale = ref [] in
                Hashtbl.iter
                  (fun idx joined ->
                    if joined < round && not (Hashtbl.mem pruned_once idx) then begin
                      let v = eval_f coeffs_f idx in
                      let scale =
                        Float.max 1e-300
                          (Float.max (Float.abs v)
                             (Float.max (Float.abs lo_f.(idx))
                                (Float.abs hi_f.(idx))))
                      in
                      let slack =
                        Float.min (v -. lo_f.(idx)) (hi_f.(idx) -. v)
                      in
                      if slack > 1e-9 *. scale then stale := idx :: !stale
                    end)
                  working;
                let excess = Hashtbl.length working - max_working in
                List.iteri
                  (fun i idx ->
                    if i < excess then begin
                      Hashtbl.remove working idx;
                      Hashtbl.replace pruned_once idx ()
                    end)
                  !stale
              end;
              log
                (Printf.sprintf
                   "lp: round %d: %d violations, working set now %d" round
                   (List.length vs) (Hashtbl.length working));
              loop (round + 1))
    in
    loop 1
  end

let solve_system ?log inst =
  Option.iter (fun f -> f inst) (Atomic.get recorder);
  solve_instance ?log inst

let solve_interval_system ?max_added_per_round ?log ?initial_working ?tilt
    ?mono_bits ~powers points =
  solve_system ?log
    (instance ?max_added_per_round ?initial_working ?tilt ?mono_bits ~powers
       points)
