(* Tests for the parameterized software floating point formats, including
   the round-to-odd mode and the double-rounding property that RLibm-All
   relies on. *)

open Softfp

let b16 = binary16

let test_format_parameters () =
  Alcotest.(check int) "binary32 width" 32 (width binary32);
  Alcotest.(check int) "fp34 width" 34 (width fp34);
  Alcotest.(check int) "fp34 prec" 26 fp34.prec;
  Alcotest.(check int) "binary32 emax" 127 (emax binary32);
  Alcotest.(check int) "binary32 emin" (-126) (emin binary32);
  Alcotest.(check int) "b16 emax" 15 (emax b16);
  Alcotest.(check int) "bfloat16 width" 16 (width bfloat16);
  Alcotest.(check int) "widen" 26 (with_extra_prec binary32 2).prec;
  Alcotest.check_raises "width > 63"
    (Invalid_argument "Softfp.make_fmt: width > 63") (fun () ->
      ignore (make_fmt ~ebits:11 ~prec:53))

let test_classify () =
  Alcotest.(check bool) "zero" true (classify b16 (zero_bits b16) = Zero);
  Alcotest.(check bool) "neg zero" true
    (classify b16 (neg_zero_bits b16) = Zero);
  Alcotest.(check bool) "inf" true (classify b16 (inf_bits b16 ~neg:false) = Inf);
  Alcotest.(check bool) "nan" true (classify b16 (nan_bits b16) = NaN);
  Alcotest.(check bool) "min sub" true
    (classify b16 (min_subnormal_bits b16 ~neg:false) = Subnormal);
  Alcotest.(check bool) "max finite" true
    (classify b16 (max_finite_bits b16 ~neg:false) = Normal)

let test_decode_known_binary16 () =
  (* Known binary16 patterns. *)
  let check name bits expect =
    Alcotest.(check (float 0.0)) name expect (to_float b16 (Int64.of_int bits))
  in
  check "one" 0x3C00 1.0;
  check "two" 0x4000 2.0;
  check "neg one" 0xBC00 (-1.0);
  check "1.5" 0x3E00 1.5;
  check "max" 0x7BFF 65504.0;
  check "min sub" 0x0001 (Float.ldexp 1.0 (-24));
  check "min normal" 0x0400 (Float.ldexp 1.0 (-14))

let test_encode_matches_native_binary32 () =
  (* The binary32 encoder must agree with the hardware float cast (RNE). *)
  let cases =
    [ 0.1; 1.0; -1.0; 3.14159; 1.0e38; -1.0e38; 1.0e-38; 1.0e-45;
      65504.1; Float.ldexp 1.0 (-126); Float.ldexp 1.0 (-149) ]
  in
  List.iter
    (fun x ->
      let native =
        Int64.logand (Int64.of_int32 (Int32.bits_of_float x)) 0xFFFFFFFFL
      in
      let soft = of_rat binary32 RNE (Rat.of_float x) in
      Alcotest.(check int64) (Printf.sprintf "%h" x) native soft)
    cases

let test_round_to_odd_semantics () =
  (* Exactly representable values stay put (even or odd pattern). *)
  let one = of_rat b16 RTO Rat.one in
  Alcotest.(check (float 0.0)) "exact 1" 1.0 (to_float b16 one);
  (* An inexact value must round to an adjacent value with odd pattern. *)
  let q = Rat.of_ints 1 3 in
  let b = of_rat b16 RTO q in
  Alcotest.(check bool) "odd pattern" true (frac_odd b16 b);
  let v = to_rat b16 b in
  let dist = Rat.abs (Rat.sub v q) in
  (* within one ulp of 1/3 (~2^-12 at this scale) *)
  Alcotest.(check bool) "adjacent" true
    (Rat.compare dist (Rat.mul_pow2 Rat.one (-11)) < 0)

let test_rounding_modes_quarter () =
  (* 1 + 1/4 ulp in binary16: prec 11, ulp of 1.0 is 2^-10. *)
  let x = Rat.add Rat.one (Rat.mul_pow2 Rat.one (-12)) in
  let as_f m = to_float b16 (of_rat b16 m x) in
  Alcotest.(check (float 0.0)) "RNE down" 1.0 (as_f RNE);
  Alcotest.(check (float 0.0)) "RNA down" 1.0 (as_f RNA);
  Alcotest.(check (float 0.0)) "RTZ down" 1.0 (as_f RTZ);
  Alcotest.(check (float 0.0)) "RTD down" 1.0 (as_f RTD);
  let up = 1.0 +. Float.ldexp 1.0 (-10) in
  Alcotest.(check (float 0.0)) "RTU up" up (as_f RTU);
  Alcotest.(check (float 0.0)) "RTO odd" up (as_f RTO);
  (* negative mirror *)
  let nx = Rat.neg x in
  let as_f m = to_float b16 (of_rat b16 m nx) in
  Alcotest.(check (float 0.0)) "neg RTU" (-1.0) (as_f RTU);
  Alcotest.(check (float 0.0)) "neg RTD" (-.up) (as_f RTD);
  Alcotest.(check (float 0.0)) "neg RTZ" (-1.0) (as_f RTZ)

let test_ties () =
  (* exactly halfway between 1 and 1 + ulp: 1 + 2^-11 *)
  let x = Rat.add Rat.one (Rat.mul_pow2 Rat.one (-11)) in
  let up = 1.0 +. Float.ldexp 1.0 (-10) in
  Alcotest.(check (float 0.0)) "RNE tie -> even" 1.0
    (to_float b16 (of_rat b16 RNE x));
  Alcotest.(check (float 0.0)) "RNA tie -> away" up
    (to_float b16 (of_rat b16 RNA x));
  (* halfway between 1 + ulp and 1 + 2ulp: rounds up to even under RNE *)
  let x2 = Rat.add Rat.one (Rat.mul_pow2 (Rat.of_int 3) (-11)) in
  Alcotest.(check (float 0.0)) "RNE tie -> even (up)" (1.0 +. Float.ldexp 1.0 (-9))
    (to_float b16 (of_rat b16 RNE x2))

let test_overflow_modes () =
  let huge = Rat.mul_pow2 Rat.one 100 in
  let check name mode expect_cls neg =
    let b = of_rat b16 mode (if neg then Rat.neg huge else huge) in
    Alcotest.(check bool) name true (classify b16 b = expect_cls)
  in
  check "RNE -> inf" RNE Inf false;
  check "RNA -> inf" RNA Inf false;
  check "RTZ -> max" RTZ Normal false;
  check "RTO -> max (odd)" RTO Normal false;
  check "RTU pos -> inf" RTU Inf false;
  check "RTU neg -> -max" RTU Normal true;
  check "RTD neg -> -inf" RTD Inf true;
  check "RTD pos -> max" RTD Normal false;
  (* RTO overflow result must be the odd-patterned max finite *)
  let b = of_rat b16 RTO huge in
  Alcotest.(check int64) "RTO max finite" (max_finite_bits b16 ~neg:false) b;
  Alcotest.(check bool) "max finite pattern odd" true (frac_odd b16 b)

let test_underflow_modes () =
  let tiny = Rat.mul_pow2 Rat.one (-80) in
  let ms = min_subnormal_bits b16 ~neg:false in
  Alcotest.(check int64) "RNE -> 0" (zero_bits b16) (of_rat b16 RNE tiny);
  Alcotest.(check int64) "RTZ -> 0" (zero_bits b16) (of_rat b16 RTZ tiny);
  Alcotest.(check int64) "RTU -> minsub" ms (of_rat b16 RTU tiny);
  Alcotest.(check int64) "RTO -> minsub (odd)" ms (of_rat b16 RTO tiny);
  Alcotest.(check int64) "neg RTD -> -minsub"
    (min_subnormal_bits b16 ~neg:true)
    (of_rat b16 RTD (Rat.neg tiny));
  Alcotest.(check int64) "neg RTU -> -0" (neg_zero_bits b16)
    (of_rat b16 RTU (Rat.neg tiny))

let test_succ_pred () =
  let one = of_rat b16 RNE Rat.one in
  let s = succ b16 one in
  Alcotest.(check (float 0.0)) "succ 1" (1.0 +. Float.ldexp 1.0 (-10))
    (to_float b16 s);
  Alcotest.(check int64) "pred succ = id" one (pred b16 s);
  (* crossing zero *)
  let pz = zero_bits b16 and nz = neg_zero_bits b16 in
  Alcotest.(check int64) "succ +0 = minsub" (min_subnormal_bits b16 ~neg:false)
    (succ b16 pz);
  Alcotest.(check int64) "succ -0 = +0" pz (succ b16 nz);
  Alcotest.(check int64) "pred +0 = -0" nz (pred b16 pz);
  Alcotest.(check int64) "pred -0 = -minsub" (min_subnormal_bits b16 ~neg:true)
    (pred b16 nz);
  (* into infinity *)
  Alcotest.(check bool) "succ max = inf" true
    (classify b16 (succ b16 (max_finite_bits b16 ~neg:false)) = Inf)

let test_iter_finite_count () =
  let small = make_fmt ~ebits:3 ~prec:3 in
  let n = ref 0 in
  iter_finite small (fun _ -> incr n);
  Alcotest.(check int) "count matches" (count_finite small) !n;
  Alcotest.(check int) "count formula" (2 * 7 * 4) !n

(* ---------- property tests ---------- *)

let arb_rat_small =
  QCheck2.Gen.(
    let* n = int_range (-2_000_000) 2_000_000 in
    let* d = int_range 1 2_000_000 in
    let* s = int_range (-20) 20 in
    return (Rat.mul_pow2 (Rat.of_ints n d) s))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:400 ~name gen f)

let decode_ok fmt bits = is_finite fmt bits

let props =
  [
    prop "rounding is monotone (RNE, b16)"
      (QCheck2.Gen.pair arb_rat_small arb_rat_small) (fun (a, b) ->
        let a, b = if Rat.compare a b <= 0 then (a, b) else (b, a) in
        let fa = of_rat b16 RNE a and fb = of_rat b16 RNE b in
        (not (decode_ok b16 fa && decode_ok b16 fb))
        || ordinal b16 fa <= ordinal b16 fb);
    prop "RTD <= RNE <= RTU (b16)" arb_rat_small (fun a ->
        let d = of_rat b16 RTD a and n = of_rat b16 RNE a and u = of_rat b16 RTU a in
        (not (decode_ok b16 d && decode_ok b16 n && decode_ok b16 u))
        || (ordinal b16 d <= ordinal b16 n && ordinal b16 n <= ordinal b16 u));
    prop "idempotent re-rounding (all modes)" arb_rat_small (fun a ->
        List.for_all
          (fun m ->
            let b = of_rat b16 m a in
            (* zero results are excluded: Rat cannot carry the sign of
               zero, so -0 legitimately re-rounds to +0 *)
            (not (decode_ok b16 b))
            || classify b16 b = Zero
            || Int64.equal b (of_rat b16 m (to_rat b16 b)))
          (RTO :: all_standard_modes));
    prop "RTO inexact results are odd" arb_rat_small (fun a ->
        let b = of_rat b16 RTO a in
        (not (decode_ok b16 b))
        || Rat.equal (to_rat b16 b) a
        || frac_odd b16 b);
    prop "round-to-odd double rounding = direct rounding"
      (QCheck2.Gen.pair arb_rat_small (QCheck2.Gen.int_range 7 11))
      (fun (a, k) ->
        (* wide = (11+2)-sig-bit format, narrow = k bits total with 5 ebits *)
        let wide = make_fmt ~ebits:5 ~prec:13 in
        let narrow_fmt = make_fmt ~ebits:5 ~prec:(k - 5) in
        let wide_ro = of_rat wide RTO a in
        List.for_all
          (fun m ->
            Int64.equal
              (of_rat narrow_fmt m a)
              (narrow ~src:wide ~dst:narrow_fmt m wide_ro))
          all_standard_modes);
    prop "ordinal respects value order" (QCheck2.Gen.pair arb_rat_small arb_rat_small)
      (fun (a, b) ->
        let fa = of_rat b16 RNE a and fb = of_rat b16 RNE b in
        (not (decode_ok b16 fa && decode_ok b16 fb))
        || (Rat.compare (to_rat b16 fa) (to_rat b16 fb) < 0)
           = (ordinal b16 fa < ordinal b16 fb
             && not (Rat.equal (to_rat b16 fa) (to_rat b16 fb))));
  ]

(* ---------- native rounding core against the of_rat reference ----------

   [round_dyadic], and [round_float] / [narrow] built on it, must agree
   with [of_rat] on the same exact value bit for bit — in every mode,
   through gradual underflow and overflow.  Zero inputs are left out of
   the comparisons: [Rat] has no signed zero, so they are checked on
   their own. *)

let all_modes = RTO :: all_standard_modes

let reference fmt mode x = of_rat fmt mode (Rat.of_float x)

let gen_fmt =
  QCheck2.Gen.(
    let* ebits = int_range 1 11 in
    let* prec = int_range 2 30 in
    return (make_fmt ~ebits ~prec))

(* A double [m * 2^e] aimed at [fmt]'s interesting places: anywhere from
   below half the smallest subnormal to above the overflow threshold,
   with either a full 53-bit significand or a short one (exact values
   and exact ties), plus subnormal doubles. *)
let gen_double_for fmt =
  QCheck2.Gen.(
    let qmin = emin fmt - (fmt.prec - 1) in
    let* neg = bool in
    let* kind = int_range 0 4 in
    let* bits, lo, hi =
      match kind with
      | 0 -> map (fun b -> (b, qmin - 3, emax fmt + 2)) (int_range 1 53)
      | 1 ->
          (* at most prec+1 significant bits: exact or an exact tie *)
          map (fun b -> (b, qmin - 2, emax fmt + 1)) (int_range 1 (fmt.prec + 1))
      | 2 -> return (53, emax fmt - 1, emax fmt + 1)
      | 3 -> return (53, qmin - 4, qmin + 1)
      | _ -> return (53, -1100, -1074)
    in
    let* m = int_bound ((1 lsl bits) - 1) in
    let m = m lor (1 lsl (bits - 1)) in
    let* top = int_range lo hi in
    (* top is the exponent of the leading bit *)
    let x = Float.ldexp (float_of_int m) (top - (bits - 1)) in
    return (if neg then -.x else x))

let gen_fmt_double =
  QCheck2.Gen.(
    let* fmt = gen_fmt in
    let* x = gen_double_for fmt in
    return (fmt, x))

let print_fmt_double (fmt, x) =
  Printf.sprintf "ebits %d prec %d x %h" fmt.ebits fmt.prec x

let prop_round_float_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~print:print_fmt_double
       ~name:"round_float = of_rat . Rat.of_float (ebits 1..11, prec 2..30)"
       gen_fmt_double (fun (fmt, x) ->
         x = 0.0
         || (not (Float.is_finite x))
         || List.for_all
              (fun mode ->
                Int64.equal (round_float fmt mode x) (reference fmt mode x))
              all_modes))

let prop_round_dyadic_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000
       ~name:"round_dyadic = of_rat on 62-bit significands"
       QCheck2.Gen.(
         let* fmt = gen_fmt in
         let* bits = int_range 1 62 in
         let* m = int_bound (if bits = 62 then max_int else (1 lsl bits) - 1) in
         let m = m lor (1 lsl (bits - 1)) in
         let* neg = bool in
         let* top = int_range (emin fmt - fmt.prec - 70) (emax fmt + 2) in
         return (fmt, neg, m, top - (bits - 1)))
       (fun (fmt, neg, m, e) ->
         let q = Rat.mul_pow2 (Rat.of_int (if neg then -m else m)) e in
         List.for_all
           (fun mode ->
             Int64.equal (round_dyadic fmt mode ~neg m e) (of_rat fmt mode q))
           all_modes))

let test_round_float_edges () =
  (* Fixed edge cases on binary16 and the mini target format. *)
  List.iter
    (fun fmt ->
      let qmin = emin fmt - (fmt.prec - 1) in
      let maxf = to_float fmt (max_finite_bits fmt ~neg:false) in
      let half_ulp_max = Float.ldexp 1.0 (emax fmt - fmt.prec) in
      let cases =
        [ maxf; maxf +. half_ulp_max; maxf +. (half_ulp_max /. 2.0);
          maxf +. (1.5 *. half_ulp_max); Float.ldexp 1.0 (emax fmt + 1);
          Float.ldexp 1.0 qmin; Float.ldexp 1.0 (qmin - 1);
          Float.ldexp 1.0 (qmin - 2); Float.ldexp 3.0 (qmin - 2);
          Float.ldexp 1.0 (emin fmt); Float.ldexp 1.0 (emin fmt - 1);
          1.0; 1.0 +. Float.ldexp 1.0 (-fmt.prec);
          Float.ldexp 1.0 (-1074); Float.min_float; Float.max_float ]
      in
      List.iter
        (fun x ->
          List.iter
            (fun x ->
              List.iter
                (fun mode ->
                  Alcotest.(check int64)
                    (Printf.sprintf "e%dp%d %s %h" fmt.ebits fmt.prec
                       (mode_to_string mode) x)
                    (reference fmt mode x) (round_float fmt mode x))
                all_modes)
            [ x; -.x ])
        (List.filter Float.is_finite cases);
      List.iter
        (fun mode ->
          Alcotest.(check int64) "+0" (zero_bits fmt) (round_float fmt mode 0.0);
          Alcotest.(check int64) "-0" (neg_zero_bits fmt)
            (round_float fmt mode (-0.0));
          Alcotest.(check int64) "+inf" (inf_bits fmt ~neg:false)
            (round_float fmt mode Float.infinity);
          Alcotest.(check bool) "nan" true
            (is_nan fmt (round_float fmt mode Float.nan)))
        all_modes)
    [ b16; make_fmt ~ebits:5 ~prec:10; make_fmt ~ebits:1 ~prec:2;
      make_fmt ~ebits:11 ~prec:30 ]

(* Every finite pattern of a few small sources into every format with no
   more exponent bits and no more precision, under every mode. *)
let test_narrow_exhaustive () =
  List.iter
    (fun (se, sp) ->
      let src = make_fmt ~ebits:se ~prec:sp in
      for de = 1 to se do
        for dp = 2 to sp do
          let dst = make_fmt ~ebits:de ~prec:dp in
          iter_finite src (fun b ->
              List.iter
                (fun mode ->
                  let got = narrow ~src ~dst mode b in
                  let want =
                    match classify src b with
                    | Zero ->
                        if sign_bit src b then neg_zero_bits dst else zero_bits dst
                    | _ -> of_rat dst mode (to_rat src b)
                  in
                  if not (Int64.equal got want) then
                    Alcotest.failf "narrow e%dp%d 0x%Lx -> e%dp%d %s: 0x%Lx, want 0x%Lx"
                      se sp b de dp (mode_to_string mode) got want)
                all_modes)
        done
      done)
    [ (2, 4); (3, 5); (4, 7) ]

let test_to_float_exhaustive () =
  let fmt = make_fmt ~ebits:5 ~prec:10 in
  iter_finite fmt (fun b ->
      if classify fmt b <> Zero then
        let got = to_float fmt b and want = Rat.to_float (to_rat fmt b) in
        if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want))
        then Alcotest.failf "to_float 0x%Lx: %h, want %h" b got want);
  Alcotest.(check (float 0.0)) "-0" (-0.0) (to_float fmt (neg_zero_bits fmt));
  Alcotest.(check bool) "-0 sign" true
    (Float.sign_bit (to_float fmt (neg_zero_bits fmt)))

(* The verdict's own roundings of real generated results: for every
   input of the mini universe, the double [eval_bits] returns, rounded
   to odd into the widened target and directly into every narrower
   (format, mode) pair, and the oracle-side double rounding of that
   round-to-odd result — all against the of_rat reference.  The verdict
   and the benchmark's reference check share [Genlibm.round_result], so
   this is what guards the pair against a common-mode bug. *)
let test_verdict_roundings () =
  List.iter
    (fun func ->
      let cfg = Rlibm.Config.mini_for func in
      let tin = cfg.Rlibm.Config.tin and tout = Rlibm.Config.tout cfg in
      let g =
        match Test_util.generate ~cfg ~scheme:Polyeval.EstrinFma func with
        | Ok g -> g
        | Error e -> Alcotest.failf "generation: %s" (Diag.Error.to_string e)
      in
      let narrow_fmts =
        List.init (width tin - (tin.ebits + 2) + 1) (fun i ->
            make_fmt ~ebits:tin.ebits ~prec:(2 + i))
      in
      let checks = ref 0 in
      Array.iter
        (fun x ->
          let v = Genlibm.eval_bits g x in
          if Float.is_finite v && v <> 0.0 then begin
            let q = Rat.of_float v in
            let y = Genlibm.round_result tout RTO v in
            if not (Int64.equal y (of_rat tout RTO q)) then
              Alcotest.failf "%s: RTO of %h" (Oracle.name func) v;
            List.iter
              (fun f ->
                List.iter
                  (fun mode ->
                    incr checks;
                    let want = of_rat f mode q in
                    if not (Int64.equal (Genlibm.round_result f mode v) want)
                    then
                      Alcotest.failf "%s: direct e%dp%d %s of %h"
                        (Oracle.name func) f.ebits f.prec (mode_to_string mode) v;
                    if
                      is_finite tout y
                      && not
                           (Int64.equal (narrow ~src:tout ~dst:f mode y)
                              (of_rat f mode (to_rat tout y)))
                    then
                      Alcotest.failf "%s: narrow e%dp%d %s of 0x%Lx"
                        (Oracle.name func) f.ebits f.prec (mode_to_string mode) y)
                  all_standard_modes)
              narrow_fmts
          end)
        (Genlibm.inputs_exhaustive tin);
      Alcotest.(check bool)
        (Oracle.name func ^ ": 35 checks per finite result")
        true
        (!checks > 0 && !checks mod 35 = 0))
    [ Oracle.Exp2; Oracle.Log2 ]

let suite =
  [
    ("format parameters", `Quick, test_format_parameters);
    ("classification", `Quick, test_classify);
    ("binary16 decode known", `Quick, test_decode_known_binary16);
    ("binary32 encode = native cast", `Quick, test_encode_matches_native_binary32);
    ("round-to-odd semantics", `Quick, test_round_to_odd_semantics);
    ("directed modes", `Quick, test_rounding_modes_quarter);
    ("nearest ties", `Quick, test_ties);
    ("overflow per mode", `Quick, test_overflow_modes);
    ("underflow per mode", `Quick, test_underflow_modes);
    ("succ/pred navigation", `Quick, test_succ_pred);
    ("finite enumeration", `Quick, test_iter_finite_count);
    ("round_float edges = of_rat", `Quick, test_round_float_edges);
    ("narrow exhaustive = of_rat", `Quick, test_narrow_exhaustive);
    ("to_float exhaustive (mini target)", `Quick, test_to_float_exhaustive);
    ("verdict roundings of exp2/log2 = of_rat", `Quick, test_verdict_roundings);
    prop_round_float_reference;
    prop_round_dyadic_reference;
  ]
  @ props
