(* The function-spec registry.  See funcspec.mli for the contract.

   The enclosure kernels (series with explicit remainder bounds) live
   here because they are per-function knowledge: all enclosures are
   computed with outward-rounded dyadic interval arithmetic at a working
   precision a few dozen bits above the requested one; truncation errors
   of the series are added explicitly from conservative closed-form
   remainder bounds.  Beside them sit the oracle's first-level kernels:
   the same reductions and series in outward-rounded doubles (Fival), at
   a fixed accuracy of about 45 bits. *)

module B = Bigint
module D = Dyadic

type func = Exp | Exp2 | Exp10 | Log | Log2 | Log10

type family =
  | Exp_family of { log2_base : float }
  | Log_family of { k_scale : float; k_exact : bool }

type preset = { pieces : int; min_degree : int }

type spec = {
  func : func;
  name : string;
  aliases : string list;
  family : family;
  domain_ok : Rat.t -> bool;
  exact_value : Rat.t -> Rat.t option;
  enclosure : Rat.t -> prec:int -> Ival.t;
  fast_enclosure : float -> Fival.t;
  mini : preset;
  float32 : preset;
}

(* ---------- series kernels ---------- *)

(* atanh(t) for an exact rational 0 <= t <= 1/3 + eps. *)
let atanh_enclosure t ~prec =
  if Rat.is_zero t then Ival.point D.zero
  else begin
    let wp = prec + 24 in
    let tf = Rat.to_float t in
    assert (tf > 0.0 && tf < 0.5);
    (* Smallest N with t^(2N+3) / ((2N+3)(1 - t^2)) < 2^-(prec+8); the
       comparison runs in log2 space so that large [prec] cannot underflow
       double arithmetic. *)
    let lt = Float.log2 tf in
    let slack = Float.log2 (1.0 -. (tf *. tf)) in
    let n_terms =
      let rec go n =
        let l =
          (float_of_int ((2 * n) + 3) *. lt)
          -. Float.log2 (float_of_int ((2 * n) + 3))
          -. slack
        in
        if l < float_of_int (-(prec + 8)) then n else go (n + 1)
      in
      go 0
    in
    let tiv = Ival.of_rat ~prec:wp t in
    let t2iv = Ival.mul ~prec:wp tiv tiv in
    let sum = ref (Ival.point D.zero) in
    let power = ref tiv in
    for i = 0 to n_terms do
      let term = Ival.div ~prec:wp !power (Ival.of_int ((2 * i) + 1)) in
      sum := Ival.add ~prec:wp !sum term;
      power := Ival.mul ~prec:wp !power t2iv
    done;
    (* Remainder of the positive series: bounded by
       t^(2N+3) / ((2N+3) (1 - t^2)) <= hi(power) * 9/8 since t <= 1/3. *)
    let rem =
      let p_hi = Ival.hi !power in
      D.round D.Up ~prec:wp (D.mul p_hi (D.make (B.of_int 9) (-3)))
    in
    Ival.widen !sum rem
  end

(* exp(r) for an interval r with |r| <= 3/4. *)
let exp_reduced riv ~prec =
  let wp = prec + 24 in
  let rmax = Rat.to_float (D.to_rat (Ival.mag_hi riv)) in
  assert (rmax <= 0.75);
  if rmax = 0.0 then Ival.of_int 1
  else begin
    (* Smallest N with rmax^(N+1)/(N+1)! / (1-rmax) < 2^-(prec+8), tracked
       in log2 space to survive large [prec]. *)
    let lr = Float.log2 rmax in
    let slack = Float.log2 (1.0 -. rmax) in
    let lterm = ref 0.0 in
    let n_terms = ref 0 in
    let continue = ref true in
    while !continue do
      incr n_terms;
      lterm := !lterm +. lr -. Float.log2 (float_of_int !n_terms);
      if !lterm -. slack < float_of_int (-(prec + 8)) then continue := false
    done;
    let n_terms = !n_terms in
    (* Horner: acc_k = 1 + r/k * acc_{k+1}. *)
    let acc = ref (Ival.of_int 1) in
    for k = n_terms downto 1 do
      let t = Ival.div ~prec:wp (Ival.mul ~prec:wp riv !acc) (Ival.of_int k) in
      acc := Ival.add ~prec:wp (Ival.of_int 1) t
    done;
    (* The remainder bound as a power of two strictly above the log2-space
       estimate (dyadic exponents never underflow). *)
    let rem = D.pow2 (int_of_float (Float.ceil (!lterm -. slack)) + 2) in
    Ival.widen !acc rem
  end

(* ---------- cached constants ---------- *)

(* Enclosure evaluation runs on worker domains during parallel oracle
   table construction, so the shared constant caches are mutex-protected
   (a bare top-level [Lazy] raises [CamlinternalLazy.Undefined] when two
   domains force it at once).  [compute] runs outside the lock (it may
   recurse into [memo], and a duplicated computation is deterministic and
   merely wasted work). *)
let const_mutex = Mutex.create ()

let memo tbl key compute =
  let lookup () =
    Mutex.lock const_mutex;
    let v = Hashtbl.find_opt tbl key in
    Mutex.unlock const_mutex;
    v
  in
  match lookup () with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.lock const_mutex;
      (* First writer wins so every domain sees one value per key. *)
      let v =
        match Hashtbl.find_opt tbl key with
        | Some v0 -> v0
        | None ->
            Hashtbl.replace tbl key v;
            v
      in
      Mutex.unlock const_mutex;
      v

let const_cache : (string * int, Ival.t) Hashtbl.t = Hashtbl.create 16
let cached key ~prec compute = memo const_cache (key, prec) compute

(* ln 2 = 2 atanh(1/3). *)
let ln2 ~prec =
  cached "ln2" ~prec (fun () ->
      Ival.mul_2exp (atanh_enclosure (Rat.of_ints 1 3) ~prec:(prec + 4)) 1)

(* ln 10 = 3 ln 2 + 2 atanh(1/9)   (10 = 1.25 * 2^3, t = 1/9). *)
let ln10 ~prec =
  cached "ln10" ~prec (fun () ->
      let wp = prec + 8 in
      let a = Ival.mul ~prec:wp (Ival.of_int 3) (ln2 ~prec:wp) in
      let b = Ival.mul_2exp (atanh_enclosure (Rat.of_ints 1 9) ~prec:wp) 1 in
      Ival.add ~prec:wp a b)

(* Correctly rounded doubles of log2(e), log2(10), ln 2, log10(2) — the
   family constants every reduction / threshold check shares. *)
let log2e = 1.4426950408889634
let log2_10 = 3.321928094887362
let rn_ln2 = 0.6931471805599453
let log10_2 = 0.30102999566398120

(* Double-interval enclosures of the constants, from the 120-bit ones;
   computed on first use, never at start-up. *)
let float_consts : (string, Fival.t) Hashtbl.t = Hashtbl.create 4
let fln2 () =
  memo float_consts "ln2" (fun () -> Fival.of_ival (ln2 ~prec:120))

let fln10 () =
  memo float_consts "ln10" (fun () -> Fival.of_ival (ln10 ~prec:120))

(* ---------- first-level kernels (double intervals) ----------

   Rigorous but fixed-accuracy (a relative width of about 2^-45)
   enclosures of f x for a double x, for the oracle's first level.  A
   kernel answers [Fival.entire] outside the range its series bound
   covers. *)

let f_one = Fival.point 1.0

(* exp(r) for |r| <= 3/4: 16 Horner steps acc_k = 1 + r acc_(k+1) / k.
   The tail sum_(k>16) |r|^k / k! is below 1.05 |r|^17 / 17!, which is
   below |r|^17 2^-48; the widening doubles that to absorb the rounding
   of [pow]. *)
let fexp_reduced r =
  let rmax = Fival.mag r in
  if not (rmax <= 0.75) then Fival.entire
  else begin
    let acc = ref f_one in
    for k = 16 downto 1 do
      let step = Fival.div (Fival.mul r !acc) (Fival.point (float_of_int k)) in
      acc := Fival.add f_one step
    done;
    Fival.widen !acc (Float.pow rmax 17. *. 0x1p-47)
  end

(* exp of an interval: exp(t) = 2^n exp(t - n ln2), n nearest t / ln2. *)
let fexp t =
  if not (Fival.mag t < 1e5) then Fival.entire
  else begin
    let n = Float.round (t.Fival.lo /. rn_ln2) in
    let r = Fival.sub t (Fival.mul (Fival.point n) (fln2 ())) in
    Fival.mul_2exp (fexp_reduced r) (int_of_float n)
  end

(* ln x for a positive double, as (k, 2 atanh t) with ln x = k ln2 +
   2 atanh(t): x = m 2^k with m in [sqrt(1/2), sqrt 2), t = (m - 1)/(m + 1),
   |t| < 0.1716.  Twelve terms of atanh(t) = sum t^(2i+1)/(2i+1), Horner
   in t^2; the tail is below |t|^25 / (25 (1 - t^2)), a twentieth of the
   |t|^25 widened by. *)
let flog_parts x =
  let m, e = Float.frexp x in
  let m, k = if m < 0x1.6a09e667f3bcdp-1 then (2.0 *. m, e - 1) else (m, e) in
  let mi = Fival.point m in
  let t = Fival.div (Fival.sub mi f_one) (Fival.add mi f_one) in
  let tmax = Fival.mag t in
  let two_atanh =
    if not (tmax < 0.18) then Fival.entire
    else begin
      let t2 = Fival.mul t t in
      let inv_odd i =
        Fival.div f_one (Fival.point (float_of_int ((2 * i) + 1)))
      in
      let acc = ref (inv_odd 11) in
      for i = 10 downto 0 do
        acc := Fival.add (inv_odd i) (Fival.mul t2 !acc)
      done;
      Fival.mul_2exp (Fival.widen (Fival.mul t !acc) (Float.pow tmax 25.)) 1
    end
  in
  (Fival.point (float_of_int k), two_atanh)

let flog x =
  let k, a = flog_parts x in
  Fival.add (Fival.mul k (fln2 ())) a

(* ---------- shared enclosure bodies ---------- *)

(* exp of an arbitrary (narrow) interval: reduce by n*ln2. *)
let exp_ival xiv ~prec =
  let wp = prec + 24 in
  let mid = Rat.to_float (D.to_rat (Ival.lo xiv)) in
  if Float.abs mid > 1.0e7 then
    invalid_arg "Oracle: exponent argument too large for direct enclosure";
  let n = int_of_float (Float.round (mid /. Float.log 2.0)) in
  let r = Ival.sub ~prec:wp xiv (Ival.mul ~prec:wp (Ival.of_int n) (ln2 ~prec:wp)) in
  Ival.mul_2exp (exp_reduced r ~prec) n

(* ln of an exact positive rational. *)
let log_enclosure x ~prec =
  assert (Rat.sign x > 0);
  let wp = prec + 24 in
  (* x = m * 2^k with m in [1, 2). *)
  let k =
    let c = B.numbits (Rat.num x) - B.numbits (Rat.den x) in
    if Rat.compare x (Rat.mul_pow2 Rat.one c) >= 0 then c else c - 1
  in
  let m = Rat.mul_pow2 x (-k) in
  let t = Rat.div (Rat.sub m Rat.one) (Rat.add m Rat.one) in
  let atan_part = Ival.mul_2exp (atanh_enclosure t ~prec:wp) 1 in
  Ival.add ~prec:wp (Ival.mul ~prec:wp (Ival.of_int k) (ln2 ~prec:wp)) atan_part

(* ---------- exactly representable results ---------- *)

let is_pow2 n = B.sign n > 0 && B.numbits n - 1 = B.trailing_zeros n

(* x = 2^k exactly? *)
let pow2_exponent x =
  let n = Rat.num x and d = Rat.den x in
  if B.sign n <= 0 then None
  else if B.is_one d && is_pow2 n then Some (B.numbits n - 1)
  else if B.is_one n && is_pow2 d then Some (-(B.numbits d - 1))
  else None

(* x = 10^k exactly? *)
let pow10_exponent x =
  if Rat.sign x <= 0 then None
  else begin
    let lf = Float.log10 (Rat.to_float x) in
    if not (Float.is_finite lf) || Float.abs lf > 400.0 then None
    else begin
      let k = int_of_float (Float.round lf) in
      if Rat.equal x (Rat.pow (Rat.of_int 10) k) then Some k else None
    end
  end

(* ---------- domain predicates ---------- *)

let any_rational (_ : Rat.t) = true
let positive x = Rat.sign x > 0

(* ---------- the registry ---------- *)

let spec_exp =
  {
    func = Exp;
    name = "exp";
    aliases = [];
    family = Exp_family { log2_base = log2e };
    domain_ok = any_rational;
    (* By Lindemann–Weierstrass, exp x is rational only at x = 0. *)
    exact_value = (fun x -> if Rat.is_zero x then Some Rat.one else None);
    enclosure =
      (fun x ~prec ->
        let wp = prec + 24 in
        exp_ival (Ival.of_rat ~prec:wp x) ~prec);
    fast_enclosure = (fun x -> fexp (Fival.point x));
    mini = { pieces = 2; min_degree = 3 };
    float32 = { pieces = 16; min_degree = 3 };
  }

let spec_exp2 =
  {
    func = Exp2;
    name = "exp2";
    aliases = [];
    family = Exp_family { log2_base = 1.0 };
    domain_ok = any_rational;
    (* By Gelfond–Schneider, 2^x is rational only at integer x. *)
    exact_value =
      (fun x ->
        if Rat.is_integer x && B.numbits (Rat.num x) <= 24 then
          Some (Rat.mul_pow2 Rat.one (B.to_int_exn (Rat.num x)))
        else None);
    enclosure =
      (fun x ~prec ->
        (* 2^x = 2^n * exp(f ln2), n = floor x, f = x - n in [0,1). *)
        let wp = prec + 24 in
        let n = B.to_int_exn (Rat.floor x) in
        let frac = Rat.sub x (Rat.of_int n) in
        let r = Ival.mul ~prec:wp (Ival.of_rat ~prec:wp frac) (ln2 ~prec:wp) in
        Ival.mul_2exp (exp_reduced r ~prec) n);
    fast_enclosure =
      (fun x ->
        (* 2^x = 2^n exp(f ln2), n nearest x, f = x - n exact. *)
        if not (Float.abs x < 1e5) then Fival.entire
        else
          let n = Float.round x in
          let r = Fival.mul (Fival.point (x -. n)) (fln2 ()) in
          Fival.mul_2exp (fexp_reduced r) (int_of_float n));
    mini = { pieces = 1; min_degree = 3 };
    float32 = { pieces = 16; min_degree = 3 };
  }

let spec_exp10 =
  {
    func = Exp10;
    name = "exp10";
    aliases = [];
    family = Exp_family { log2_base = log2_10 };
    domain_ok = any_rational;
    exact_value =
      (fun x ->
        if Rat.is_integer x && B.numbits (Rat.num x) <= 16 then
          Some (Rat.pow (Rat.of_int 10) (B.to_int_exn (Rat.num x)))
        else None);
    enclosure =
      (fun x ~prec ->
        let wp = prec + 24 in
        let t = Ival.mul ~prec:wp (Ival.of_rat ~prec:wp x) (ln10 ~prec:wp) in
        exp_ival t ~prec);
    fast_enclosure = (fun x -> fexp (Fival.mul (Fival.point x) (fln10 ())));
    mini = { pieces = 2; min_degree = 3 };
    float32 = { pieces = 16; min_degree = 3 };
  }

let spec_log =
  {
    func = Log;
    name = "log";
    aliases = [ "ln" ];
    family = Log_family { k_scale = rn_ln2; k_exact = false };
    domain_ok = positive;
    (* ln x is rational only at x = 1. *)
    exact_value = (fun x -> if Rat.equal x Rat.one then Some Rat.zero else None);
    enclosure = (fun x ~prec -> log_enclosure x ~prec);
    fast_enclosure = flog;
    mini = { pieces = 2; min_degree = 2 };
    float32 = { pieces = 1; min_degree = 4 };
  }

let spec_log2 =
  {
    func = Log2;
    name = "log2";
    aliases = [];
    family = Log_family { k_scale = 1.0; k_exact = true };
    domain_ok = positive;
    exact_value = (fun x -> Option.map Rat.of_int (pow2_exponent x));
    enclosure =
      (fun x ~prec ->
        let wp = prec + 24 in
        Ival.div ~prec:wp (log_enclosure x ~prec:wp) (ln2 ~prec:wp));
    fast_enclosure =
      (fun x ->
        let k, a = flog_parts x in
        Fival.add k (Fival.div a (fln2 ())));
    mini = { pieces = 1; min_degree = 2 };
    float32 = { pieces = 1; min_degree = 4 };
  }

let spec_log10 =
  {
    func = Log10;
    name = "log10";
    aliases = [];
    family = Log_family { k_scale = log10_2; k_exact = false };
    domain_ok = positive;
    exact_value = (fun x -> Option.map Rat.of_int (pow10_exponent x));
    enclosure =
      (fun x ~prec ->
        let wp = prec + 24 in
        Ival.div ~prec:wp (log_enclosure x ~prec:wp) (ln10 ~prec:wp));
    fast_enclosure = (fun x -> Fival.div (flog x) (fln10 ()));
    mini = { pieces = 2; min_degree = 2 };
    float32 = { pieces = 1; min_degree = 4 };
  }

(* The one dispatch site: every other module resolves per-function
   behaviour through this lookup (or through the [specs] list). *)
let get = function
  | Exp -> spec_exp
  | Exp2 -> spec_exp2
  | Exp10 -> spec_exp10
  | Log -> spec_log
  | Log2 -> spec_log2
  | Log10 -> spec_log10

let all = [ Exp; Exp2; Exp10; Log; Log2; Log10 ]

let name f = (get f).name

let of_name s =
  List.find_opt
    (fun f ->
      let spec = get f in
      String.equal spec.name s || List.exists (String.equal s) spec.aliases)
    all

(* Damerau–Levenshtein distance (with adjacent transposition), for the
   typo suggestion in [resolve]: "lgo2" should point at "log2". *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      let best =
        Stdlib.min
          (Stdlib.min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1))
          (d.(i - 1).(j - 1) + cost)
      in
      d.(i).(j) <-
        (if
           i > 1 && j > 1
           && a.[i - 1] = b.[j - 2]
           && a.[i - 2] = b.[j - 1]
         then Stdlib.min best (d.(i - 2).(j - 2) + 1)
         else best)
    done
  done;
  d.(la).(lb)

let resolve s =
  match of_name s with
  | Some f -> Ok f
  | None ->
      let names =
        List.concat_map (fun f -> (get f).name :: (get f).aliases) all
      in
      let lower = String.lowercase_ascii s in
      let best =
        List.fold_left
          (fun acc n ->
            let dist = edit_distance lower n in
            match acc with
            | Some (_, d0) when d0 <= dist -> acc
            | _ -> Some (n, dist))
          None names
      in
      (* Offer a suggestion only when it is plausibly a typo: within 2
         edits, and not more edits than half the name. *)
      let suggestion =
        match best with
        | Some (n, d)
          when d <= 2 && 2 * d <= Stdlib.max (String.length n) (String.length s)
          ->
            Some n
        | _ -> None
      in
      Error (Diag.Error.Bad_spec { name = s; suggestion })

let is_exp_family f =
  match (get f).family with Exp_family _ -> true | Log_family _ -> false

let log2_scale f =
  match (get f).family with
  | Exp_family { log2_base } -> Some log2_base
  | Log_family _ -> None
