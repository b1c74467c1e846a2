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

(* A rounder memoizes the (precision-indexed) enclosures of f(x), so the
   same input can be rounded into many formats and modes — the verification
   harness's access pattern — while paying for the series evaluation only
   once per precision level.  The exact value is only looked for once
   the range shortcut has not settled the result: 10^x at a large
   integer x is exact but a number of hundreds of thousands of bits. *)
type rounder = {
  r_func : func;
  r_x : Rat.t;
  r_exact : Rat.t option Lazy.t;
  mutable r_enclosures : (int * Ival.t) list; (* most precise first *)
}

let make_rounder f x =
  if not (domain_ok f x) then invalid_arg "Oracle.make_rounder: domain";
  { r_func = f; r_x = x; r_exact = lazy (exact_value f x); r_enclosures = [] }

let rounder_enclosure r prec =
  match List.find_opt (fun (p, _) -> p >= prec) (List.rev r.r_enclosures) with
  | Some (_, iv) -> iv
  | None ->
      let iv = enclosure r.r_func r.r_x ~prec in
      r.r_enclosures <- (prec, iv) :: r.r_enclosures;
      iv

(* Range shortcut for the exponentials: avoid materializing 2^(huge).
   The threshold scale is the family's log2_base from the registry. *)
let range_shortcut f x ~fmt ~mode =
  match Funcspec.log2_scale f with
  | None -> None
  | Some scale ->
      let l2 = Rat.to_float x *. scale in
      if l2 > float_of_int (Softfp.emax fmt + 2) then
        Some (huge_positive fmt mode)
      else if l2 < float_of_int (Softfp.emin fmt - fmt.Softfp.prec - 4) then
        Some (tiny_positive fmt mode)
      else None

let round_with r ~fmt ~mode =
  match range_shortcut r.r_func r.r_x ~fmt ~mode with
  | Some b -> b
  | None -> (
      match Lazy.force r.r_exact with
      | Some y -> Softfp.of_rat fmt mode y
      | None ->
          let rec ziv = function
            | [] -> failwith "Oracle: Ziv loop exhausted"
            | prec :: rest ->
                let iv = rounder_enclosure r prec in
                let lo, hi = Ival.to_rats iv in
                let bl = Softfp.of_rat fmt mode lo in
                let bh = Softfp.of_rat fmt mode hi in
                if Int64.equal bl bh then bl else ziv rest
          in
          ziv ziv_precisions)

let correctly_round f x ~fmt ~mode = round_with (make_rounder f x) ~fmt ~mode

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
