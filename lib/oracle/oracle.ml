(* Interval-based correctly rounded oracle (MPFR substitute).

   Per-function knowledge — domain predicates, exact-value rules, the
   rigorous enclosure kernels — lives in the Funcspec registry; this
   module owns only the function-agnostic machinery: the Ziv loop that
   raises the working precision until the enclosure rounds unambiguously,
   the overflow/underflow range shortcuts, and the rounder memo used by
   the multi-representation verification harness. *)

type func = Funcspec.func = Exp | Exp2 | Exp10 | Log | Log2 | Log10

let all = Funcspec.all
let name = Funcspec.name
let of_name = Funcspec.of_name
let domain_ok f x = (Funcspec.get f).Funcspec.domain_ok x
let exact_value f x = (Funcspec.get f).Funcspec.exact_value x

let enclosure f x ~prec =
  if not (domain_ok f x) then invalid_arg "Oracle.enclosure: domain";
  (Funcspec.get f).Funcspec.enclosure x ~prec

let ln2 = Funcspec.ln2
let ln10 = Funcspec.ln10

(* ---------- correctly rounded results ---------- *)

(* Rounding of a positive value known to lie strictly between 0 and the
   smallest subnormal / strictly above the largest finite value. *)
let tiny_positive fmt (mode : Softfp.mode) =
  match mode with
  | RNE | RNA | RTZ | RTD -> Softfp.zero_bits fmt
  | RTU | RTO -> Softfp.min_subnormal_bits fmt ~neg:false

let huge_positive fmt (mode : Softfp.mode) =
  match mode with
  | RNE | RNA | RTU -> Softfp.inf_bits fmt ~neg:false
  | RTZ | RTD | RTO -> Softfp.max_finite_bits fmt ~neg:false

let ziv_precisions = [ 80; 128; 192; 288; 432; 648; 1000; 1600; 2600; 4096 ]

(* ---------- level counters ---------- *)

module Levels = struct
  type t = {
    shortcut : int;
    near_one : int;
    first_level : int;
    exact : int;
    ziv : (int * int) list;
  }

  let shortcut = Atomic.make 0
  let near_one = Atomic.make 0
  let first_level = Atomic.make 0
  let exact = Atomic.make 0
  let ziv = List.map (fun p -> (p, Atomic.make 0)) ziv_precisions

  let read () =
    {
      shortcut = Atomic.get shortcut;
      near_one = Atomic.get near_one;
      first_level = Atomic.get first_level;
      exact = Atomic.get exact;
      ziv = List.map (fun (p, c) -> (p, Atomic.get c)) ziv;
    }

  let diff a b =
    {
      shortcut = a.shortcut - b.shortcut;
      near_one = a.near_one - b.near_one;
      first_level = a.first_level - b.first_level;
      exact = a.exact - b.exact;
      ziv = List.map2 (fun (p, x) (_, y) -> (p, x - y)) a.ziv b.ziv;
    }

  let total t =
    List.fold_left (fun acc (_, n) -> acc + n)
      (t.shortcut + t.near_one + t.first_level + t.exact)
      t.ziv

  let fields t =
    [
      ("shortcut", t.shortcut);
      ("near_one", t.near_one);
      ("first_level", t.first_level);
      ("exact", t.exact);
    ]
    @ List.map (fun (p, n) -> (Printf.sprintf "ziv_%d" p, n)) t.ziv
end

let count c v =
  Atomic.incr c;
  v

(* ---------- rounders ---------- *)

(* A rounder memoizes the (precision-indexed) enclosures of f(x), so the
   same input can be rounded into many formats and modes — the verification
   harness's access pattern — while paying for the series evaluation only
   once per precision level.  The exact value is only looked for once
   the range shortcut has not settled the result: 10^x at a large
   integer x is exact but a number of hundreds of thousands of bits. *)
type rounder = {
  r_func : func;
  r_x : Rat.t;
  r_xf : float; (* nearest double to r_x *)
  r_fast : Fival.t Lazy.t; (* first level; entire unless r_x is a double *)
  r_exact : Rat.t option Lazy.t;
  mutable r_enclosures : (int * Ival.t) list; (* most precise first *)
}

let make_rounder f x =
  if not (domain_ok f x) then invalid_arg "Oracle.make_rounder: domain";
  let xf = Rat.to_float x in
  let r_fast =
    lazy
      (if Float.is_finite xf && Rat.equal (Rat.of_float xf) x then
         (Funcspec.get f).Funcspec.fast_enclosure xf
       else Fival.entire)
  in
  { r_func = f; r_x = x; r_xf = xf; r_fast; r_exact = lazy (exact_value f x);
    r_enclosures = [] }

let rounder_enclosure r prec =
  match List.find_opt (fun (p, _) -> p >= prec) (List.rev r.r_enclosures) with
  | Some (_, iv) -> iv
  | None ->
      let iv = enclosure r.r_func r.r_x ~prec in
      r.r_enclosures <- (prec, iv) :: r.r_enclosures;
      iv

(* Range shortcut for the exponentials: avoid materializing 2^(huge).
   The threshold scale is the family's log2_base from the registry. *)
let range_shortcut r ~fmt ~mode =
  match Funcspec.log2_scale r.r_func with
  | None -> None
  | Some scale ->
      let l2 = r.r_xf *. scale in
      if l2 > float_of_int (Softfp.emax fmt + 2) then
        Some (huge_positive fmt mode)
      else if l2 < float_of_int (Softfp.emin fmt - fmt.Softfp.prec - 4) then
        Some (tiny_positive fmt mode)
      else None

(* Near-one rule for the exponentials: when 0 < |u| < 2^-(prec+4) with
   u = x log2_scale, f x = 2^u lies strictly between 1 and its neighbour
   on u's side, nearer to 1 than half the gap (the gap is at least
   2^-prec).  Every value there rounds alike in every mode, so 1 +- 2^-61
   stands in for f x.  The first level cannot settle these inputs: its
   enclosure of f x straddles 1. *)
let near_one r ~fmt ~mode =
  match Funcspec.log2_scale r.r_func with
  | Some scale when fmt.Softfp.prec <= 56 && Rat.sign r.r_x <> 0 ->
      if Float.abs (r.r_xf *. scale) < Float.ldexp 1.0 (-(fmt.Softfp.prec + 4))
      then
        let m = if Rat.sign r.r_x > 0 then (1 lsl 61) + 1 else (1 lsl 61) - 1 in
        Some (Softfp.round_dyadic fmt mode ~neg:false m (-61))
      else None
  | _ -> None

(* The first level: rounding is monotone, so when both endpoints of the
   enclosure round to the same pattern, so does every value between
   them.  An enclosure that touches zero or infinity never settles. *)
let first_level r ~fmt ~mode =
  let { Fival.lo; hi } = Lazy.force r.r_fast in
  if Float.is_finite lo && Float.is_finite hi && (lo > 0. || hi < 0.) then
    let bl = Softfp.round_float fmt mode lo in
    if Int64.equal bl (Softfp.round_float fmt mode hi) then Some bl else None
  else None

(* The exact-value check and the Ziv loop over the Bigint enclosures;
   returns the result with the counter of the level that settled it. *)
let exact_or_ziv r ~fmt ~mode =
  match Lazy.force r.r_exact with
  | Some y -> (Levels.exact, Softfp.of_rat fmt mode y)
  | None ->
      let rec ziv = function
        | [] -> failwith "Oracle: Ziv loop exhausted"
        | (prec, c) :: rest ->
            let iv = rounder_enclosure r prec in
            let lo, hi = Ival.to_rats iv in
            let bl = Softfp.of_rat fmt mode lo in
            let bh = Softfp.of_rat fmt mode hi in
            if Int64.equal bl bh then (c, bl) else ziv rest
      in
      ziv Levels.ziv

let round_with r ~fmt ~mode =
  match range_shortcut r ~fmt ~mode with
  | Some b -> count Levels.shortcut b
  | None -> (
      match near_one r ~fmt ~mode with
      | Some b -> count Levels.near_one b
      | None -> (
          match first_level r ~fmt ~mode with
          | Some b -> count Levels.first_level b
          | None ->
              let c, b = exact_or_ziv r ~fmt ~mode in
              count c b))

let correctly_round f x ~fmt ~mode = round_with (make_rounder f x) ~fmt ~mode

(* The path without the near-one rule and the first level, uncounted:
   the differential reference of the tests. *)
module Reference = struct
  let round_with r ~fmt ~mode =
    match range_shortcut r ~fmt ~mode with
    | Some b -> b
    | None -> snd (exact_or_ziv r ~fmt ~mode)

  let correctly_round f x ~fmt ~mode = round_with (make_rounder f x) ~fmt ~mode
end

let float64 f x =
  if not (Float.is_finite x) then invalid_arg "Oracle.float64: not finite";
  let q = Rat.of_float x in
  if not (domain_ok f q) then invalid_arg "Oracle.float64: domain";
  match exact_value f q with
  | Some y -> Rat.to_float y
  | None ->
      (* Shortcuts mirroring [correctly_round] for binary64. *)
      let shortcut =
        match Funcspec.log2_scale f with
        | None -> None
        | Some scale ->
            let l2 = x *. scale in
            if l2 > 1026.0 then Some Float.infinity
            else if l2 < -1080.0 then Some 0.0
            else None
      in
      (match shortcut with
      | Some v -> v
      | None ->
          let rec ziv = function
            | [] -> failwith "Oracle.float64: Ziv loop exhausted"
            | prec :: rest ->
                let iv = enclosure f q ~prec in
                let lo, hi = Ival.to_rats iv in
                let fl = Rat.to_float lo and fh = Rat.to_float hi in
                if fl = fh then fl else ziv rest
          in
          ziv ziv_precisions)
