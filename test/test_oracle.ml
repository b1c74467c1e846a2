(* Tests for the correctly rounded oracle (the MPFR substitute). *)

let fmt16 = Softfp.binary16

let test_exact_values () =
  let check name f x expect =
    match Oracle.exact_value f (Rat.of_string x) with
    | Some y -> Alcotest.(check string) name expect (Rat.to_string y)
    | None -> Alcotest.failf "%s: expected exact value" name
  in
  check "exp 0" Oracle.Exp "0" "1";
  check "exp2 10" Oracle.Exp2 "10" "1024";
  check "exp2 -3" Oracle.Exp2 "-3" "1/8";
  check "exp10 3" Oracle.Exp10 "3" "1000";
  check "log 1" Oracle.Log "1" "0";
  check "log2 1024" Oracle.Log2 "1024" "10";
  check "log2 1/8" Oracle.Log2 "1/8" "-3";
  check "log10 1/100" Oracle.Log10 "1/100" "-2";
  let none name f x =
    Alcotest.(check bool) name true (Oracle.exact_value f (Rat.of_string x) = None)
  in
  none "exp 1" Oracle.Exp "1";
  none "exp2 1/2" Oracle.Exp2 "1/2";
  none "log 2" Oracle.Log "2";
  none "log2 3" Oracle.Log2 "3";
  none "log10 2" Oracle.Log10 "2"

let test_constants () =
  (* ln2 and ln10 enclosures must bracket the known doubles tightly. *)
  let check name iv expect =
    let lo, hi = Ival.to_rats iv in
    Alcotest.(check bool) (name ^ " brackets") true
      (Rat.compare lo (Rat.of_float expect) <= 0
      && Rat.compare (Rat.of_float expect) hi >= 0
      ||
      (* the double is one side of the bracket *)
      Rat.to_float lo = expect || Rat.to_float hi = expect);
    Alcotest.(check bool) (name ^ " tight") true
      (Rat.compare (Rat.sub hi lo) (Rat.mul_pow2 Rat.one (-90)) < 0)
  in
  check "ln2" (Oracle.ln2 ~prec:100) 0.6931471805599453;
  check "ln10" (Oracle.ln10 ~prec:100) 2.302585092994046

let test_enclosure_brackets_native () =
  (* The enclosure must contain the value glibc computes, to within
     glibc's own error (2 ulp). *)
  let cases =
    [ (Oracle.Exp, 1.0, exp 1.0); (Oracle.Exp, -7.25, exp (-7.25));
      (Oracle.Exp2, 0.3, Float.exp2 0.3); (Oracle.Exp10, 2.5, 316.2277660168379);
      (Oracle.Log, 7.5, log 7.5); (Oracle.Log2, 7.5, Float.log2 7.5);
      (Oracle.Log10, 7.5, log10 7.5) ]
  in
  List.iter
    (fun (f, x, native) ->
      let iv = Oracle.enclosure f (Rat.of_float x) ~prec:80 in
      let lo, hi = Ival.to_rats iv in
      let slack = Rat.of_float (Float.abs native *. 1e-13) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %h" (Oracle.name f) x)
        true
        (Rat.compare (Rat.sub lo slack) (Rat.of_float native) <= 0
        && Rat.compare (Rat.of_float native) (Rat.add hi slack) <= 0))
    cases

let test_enclosure_widths_shrink () =
  let x = Rat.of_ints 7 3 in
  let w prec =
    let iv = Oracle.enclosure Oracle.Exp x ~prec in
    let lo, hi = Ival.to_rats iv in
    Rat.sub hi lo
  in
  let w80 = w 80 and w160 = w 160 in
  Alcotest.(check bool) "narrower at higher prec" true
    (Rat.compare w160 w80 < 0);
  Alcotest.(check bool) "meets target" true
    (Rat.compare w160 (Rat.mul_pow2 Rat.one (-150)) < 0)

let test_correctly_round_all_modes () =
  (* Round exp(1/3) into binary16 under every mode; check bracketing and
     mode ordering. *)
  let x = Rat.of_ints 1 3 in
  let get mode = Oracle.correctly_round Oracle.Exp x ~fmt:fmt16 ~mode in
  let ord mode = Softfp.ordinal fmt16 (get mode) in
  Alcotest.(check bool) "RTD <= RNE" true (ord Softfp.RTD <= ord Softfp.RNE);
  Alcotest.(check bool) "RNE <= RTU" true (ord Softfp.RNE <= ord Softfp.RTU);
  Alcotest.(check bool) "RTZ = RTD (positive)" true
    (ord Softfp.RTZ = ord Softfp.RTD);
  Alcotest.(check bool) "RTU - RTD <= 1" true (ord Softfp.RTU - ord Softfp.RTD <= 1);
  (* RTO result is odd unless exact *)
  Alcotest.(check bool) "RTO odd" true (Softfp.frac_odd fmt16 (get Softfp.RTO))

let test_correctly_round_exact () =
  let b = Oracle.correctly_round Oracle.Exp2 (Rat.of_int 3) ~fmt:fmt16 ~mode:Softfp.RTO in
  Alcotest.(check (float 0.0)) "2^3" 8.0 (Softfp.to_float fmt16 b);
  let b = Oracle.correctly_round Oracle.Log2 (Rat.of_int 1024) ~fmt:fmt16 ~mode:Softfp.RNE in
  Alcotest.(check (float 0.0)) "log2 1024" 10.0 (Softfp.to_float fmt16 b)

let test_overflow_underflow_shortcuts () =
  let huge = Rat.of_float 3.0e38 and fmt = Softfp.fp34 in
  let cls m = Softfp.classify fmt (Oracle.correctly_round Oracle.Exp huge ~fmt ~mode:m) in
  Alcotest.(check bool) "exp(huge) RNE inf" true (cls Softfp.RNE = Softfp.Inf);
  Alcotest.(check int64) "exp(huge) RTO = maxfin"
    (Softfp.max_finite_bits fmt ~neg:false)
    (Oracle.correctly_round Oracle.Exp huge ~fmt ~mode:Softfp.RTO);
  Alcotest.(check int64) "exp(-huge) RTO = minsub"
    (Softfp.min_subnormal_bits fmt ~neg:false)
    (Oracle.correctly_round Oracle.Exp (Rat.neg huge) ~fmt ~mode:Softfp.RTO);
  Alcotest.(check int64) "exp(-huge) RNE = 0" (Softfp.zero_bits fmt)
    (Oracle.correctly_round Oracle.Exp (Rat.neg huge) ~fmt ~mode:Softfp.RNE);
  Alcotest.(check int64) "exp(-huge) RTU = minsub"
    (Softfp.min_subnormal_bits fmt ~neg:false)
    (Oracle.correctly_round Oracle.Exp (Rat.neg huge) ~fmt ~mode:Softfp.RTU)

(* Large integer exponents have exact but enormous values (10^65535);
   the range shortcut must settle them, and small ones stay exact. *)
let test_exp10_integer_range () =
  let round x mode = Oracle.correctly_round Oracle.Exp10 (Rat.of_int x) ~fmt:fmt16 ~mode in
  Alcotest.(check int64) "10^65535 RTO = maxfin"
    (Softfp.max_finite_bits fmt16 ~neg:false) (round 65535 Softfp.RTO);
  Alcotest.(check int64) "10^40000 RNE = inf"
    (Softfp.inf_bits fmt16 ~neg:false) (round 40000 Softfp.RNE);
  Alcotest.(check int64) "10^-65535 RTO = minsub"
    (Softfp.min_subnormal_bits fmt16 ~neg:false) (round (-65535) Softfp.RTO);
  Alcotest.(check (float 0.0)) "10^2 exact" 100.0
    (Softfp.to_float fmt16 (round 2 Softfp.RTO))

let test_domain () =
  Alcotest.(check bool) "log domain" false
    (Oracle.domain_ok Oracle.Log (Rat.of_int (-1)));
  Alcotest.(check bool) "log zero" false (Oracle.domain_ok Oracle.Log Rat.zero);
  Alcotest.(check bool) "exp domain" true
    (Oracle.domain_ok Oracle.Exp (Rat.of_int (-1)));
  Alcotest.check_raises "enclosure domain"
    (Invalid_argument "Oracle.enclosure: domain") (fun () ->
      ignore (Oracle.enclosure Oracle.Log (Rat.of_int (-1)) ~prec:60))

let test_float64_against_native () =
  (* The float64 oracle and glibc should agree to <= 2 ulp (glibc's
     documented error bounds); count exact agreement as the common case. *)
  let ulp_diff a bb =
    Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float bb))
  in
  let st = Random.State.make [| 2023 |] in
  let checks =
    [ (Oracle.Exp, exp, fun () -> Random.State.float st 100.0 -. 50.0);
      (Oracle.Log, log, fun () -> Random.State.float st 1000.0 +. 1e-9);
      (Oracle.Log2, Float.log2, fun () -> Random.State.float st 1000.0 +. 1e-9);
      (Oracle.Log10, log10, fun () -> Random.State.float st 1000.0 +. 1e-9) ]
  in
  List.iter
    (fun (f, native, gen) ->
      for _ = 1 to 60 do
        let x = gen () in
        let o = Oracle.float64 f x and nv = native x in
        Alcotest.(check bool)
          (Printf.sprintf "%s %h: %h vs %h" (Oracle.name f) x o nv)
          true
          (Int64.compare (ulp_diff o nv) 2L <= 0)
      done)
    checks

let test_rounder_consistency () =
  (* A memoizing rounder must agree with fresh correctly_round calls for
     every format and mode. *)
  let x = Rat.of_ints 355 113 in
  let r = Oracle.make_rounder Oracle.Log2 x in
  List.iter
    (fun fmt ->
      List.iter
        (fun mode ->
          Alcotest.(check int64)
            (Softfp.mode_to_string mode)
            (Oracle.correctly_round Oracle.Log2 x ~fmt ~mode)
            (Oracle.round_with r ~fmt ~mode))
        (Softfp.RTO :: Softfp.all_standard_modes))
    [ Softfp.binary16; Softfp.bfloat16; Softfp.binary32; Softfp.fp34 ];
  Alcotest.check_raises "domain" (Invalid_argument "Oracle.make_rounder: domain")
    (fun () -> ignore (Oracle.make_rounder Oracle.Log (Rat.of_int (-3))))

let test_name_round_trip () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Oracle.name f) true
        (Oracle.of_name (Oracle.name f) = Some f))
    Oracle.all;
  Alcotest.(check bool) "ln alias" true (Oracle.of_name "ln" = Some Oracle.Log);
  Alcotest.(check bool) "unknown" true (Oracle.of_name "sin" = None)

(* Ziv loop correctness property: the rounded result of correctly_round
   decodes to a value within one ulp of the enclosure. *)
let prop_correctly_round_brackets =
  let gen =
    QCheck2.Gen.(
      let* fidx = int_bound 5 in
      let* n = int_range 1 40_000 in
      let* d = int_range 1 40_000 in
      let* neg = bool in
      let f = List.nth Oracle.all fidx in
      let q = Rat.of_ints (if neg then -n else n) d in
      (* keep the exponentials away from deep overflow/underflow so the
         direct enclosure (rather than the range shortcut) is exercised,
         and the logarithms positive *)
      let q =
        if not (Funcspec.is_exp_family f) then Rat.abs q
        else if Rat.compare (Rat.abs q) (Rat.of_int 30) > 0 then
          Rat.div q (Rat.of_int 40_000)
        else q
      in
      return (f, q))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"correctly_round brackets enclosure"
       gen
       (fun (f, q) ->
         QCheck2.assume (Rat.sign q <> 0 || Oracle.domain_ok f q);
         if not (Oracle.domain_ok f q) then true
         else begin
           let b = Oracle.correctly_round f q ~fmt:fmt16 ~mode:Softfp.RNE in
           if not (Softfp.is_finite fmt16 b) then true
           else begin
             (* The result must be within one ulp of the enclosure,
                expressed format-side: the enclosure intersects the open
                interval (pred b, succ b).  Non-finite neighbours satisfy
                their side vacuously. *)
             let iv = Oracle.enclosure f q ~prec:96 in
             let lo, hi = Ival.to_rats iv in
             let above_ok =
               let s = Softfp.succ fmt16 b in
               (not (Softfp.is_finite fmt16 s))
               || Rat.compare lo (Softfp.to_rat fmt16 s) < 0
             in
             let below_ok =
               let p = Softfp.pred fmt16 b in
               (not (Softfp.is_finite fmt16 p))
               || Rat.compare (Softfp.to_rat fmt16 p) hi < 0
             in
             above_ok && below_ok
           end
         end))

(* ---------- the first level against the Ziv loop ---------- *)

let std_modes = Softfp.all_standard_modes

(* Rounds every finite in-domain input of [tin] with index a multiple of
   [stride] into each (format, mode) of [targets], through one rounder of
   the full path and one of Oracle.Reference.  Returns the mismatches
   and the level counts of the full path. *)
let differential ~tin ~stride ~targets f =
  let n = (1 lsl Softfp.width tin) / stride in
  let before = Oracle.Levels.read () in
  let bad =
    Parallel.map_array
      (fun x ->
        if not (Softfp.is_finite tin x) then 0
        else
          let q = Softfp.to_rat tin x in
          if not (Oracle.domain_ok f q) then 0
          else begin
            let r = Oracle.make_rounder f q and rr = Oracle.make_rounder f q in
            List.fold_left
              (fun acc (fmt, mode) ->
                if
                  Int64.equal (Oracle.round_with r ~fmt ~mode)
                    (Oracle.Reference.round_with rr ~fmt ~mode)
                then acc
                else acc + 1)
              0 targets
          end)
      (Array.init n (fun i -> Int64.of_int (i * stride)))
  in
  ( Array.fold_left ( + ) 0 bad,
    Oracle.Levels.diff (Oracle.Levels.read ()) before )

let all_modes_of fmts =
  List.concat_map (fun fmt -> List.map (fun m -> (fmt, m)) std_modes) fmts

(* Every mini input of every function, through one rounder, into the
   round-to-odd target and every narrower width x five modes — the
   verification harness's access pattern.  The first level settles
   nearly everything that is neither exact nor a shortcut. *)
let test_differential_mini () =
  let tin = Rlibm.Config.mini_tin in
  let tout = Softfp.with_extra_prec tin 2 in
  let narrow =
    List.init
      (Softfp.width tin - (tin.Softfp.ebits + 2) + 1)
      (fun i -> Softfp.make_fmt ~ebits:tin.Softfp.ebits ~prec:(2 + i))
  in
  let targets = (tout, Softfp.RTO) :: all_modes_of narrow in
  List.iter
    (fun f ->
      let bad, lv = differential ~tin ~stride:1 ~targets f in
      Alcotest.(check int) (Oracle.name f ^ " mismatches") 0 bad;
      let open Oracle.Levels in
      let rest = total lv - lv.shortcut - lv.near_one - lv.exact in
      Alcotest.(check bool)
        (Printf.sprintf "%s first level %d of %d" (Oracle.name f)
           lv.first_level rest)
        true
        (100 * lv.first_level >= 99 * rest))
    Oracle.all

(* Real 16-bit formats, strided: binary16 into round-to-odd binary16+2
   and binary16 x five modes; bfloat16 likewise. *)
let test_differential_16bit () =
  List.iter
    (fun (tin, stride) ->
      let targets =
        (Softfp.with_extra_prec tin 2, Softfp.RTO) :: all_modes_of [ tin ]
      in
      List.iter
        (fun f ->
          let bad, _ = differential ~tin ~stride ~targets f in
          Alcotest.(check int)
            (Printf.sprintf "%s e%d.p%d mismatches" (Oracle.name f)
               tin.Softfp.ebits tin.Softfp.prec)
            0 bad)
        Oracle.all)
    [ (Softfp.binary16, 61); (Softfp.bfloat16, 67) ]

(* At 52 bits the first level's enclosures (~45 bits) never settle a
   non-exact result: every result comes from the Ziv loop, and equals
   the reference. *)
let test_forced_fallback () =
  let fmt = Softfp.make_fmt ~ebits:8 ~prec:52 in
  let xs = [ 0.3; 1.7; -2.25; 5.5; 0.07; 11.3; 100.5; 3.1 ] in
  let before = Oracle.Levels.read () in
  List.iter
    (fun f ->
      List.iter
        (fun x ->
          let q = Rat.of_float x in
          if Oracle.domain_ok f q then
            List.iter
              (fun mode ->
                Alcotest.(check int64)
                  (Printf.sprintf "%s %h %s" (Oracle.name f) x
                     (Softfp.mode_to_string mode))
                  (Oracle.Reference.correctly_round f q ~fmt ~mode)
                  (Oracle.correctly_round f q ~fmt ~mode))
              (Softfp.RTO :: std_modes))
        xs)
    Oracle.all;
  let lv = Oracle.Levels.diff (Oracle.Levels.read ()) before in
  Alcotest.(check int) "first level settled nothing" 0
    lv.Oracle.Levels.first_level;
  Alcotest.(check bool) "the Ziv loop settled the rest" true
    (List.exists (fun (_, n) -> n > 0) lv.Oracle.Levels.ziv)

(* binary32 inputs where the levels meet: exponentials within a factor of
   2^±12 of the near-one threshold, exact values, and arguments around
   the overflow and underflow thresholds of the round-to-odd target. *)
let prop_differential_binary32 =
  let tout = Softfp.fp34 in
  let f32 x = Int32.float_of_bits (Int32.bits_of_float x) in
  let gen =
    QCheck2.Gen.(
      let* fidx = int_bound 5 in
      let f = List.nth Oracle.all fidx in
      let* kind = int_bound 2 in
      let* u = float_range 1.0 2.0 in
      let* neg = bool in
      let* k = int_range (-12) 12 in
      let x =
        match (kind, Funcspec.log2_scale f) with
        | 0, Some scale ->
            (* |x log2_scale| around 2^-(prec+4) *)
            let v = Float.ldexp u (k - tout.Softfp.prec - 5) /. scale in
            if neg then -.v else v
        | 1, Some scale ->
            let edge =
              if neg then float_of_int (Softfp.emin tout - tout.Softfp.prec - 4)
              else float_of_int (Softfp.emax tout + 2)
            in
            (edge +. (float_of_int k /. 4.0) +. u -. 1.5) /. scale
        | _, Some _ -> float_of_int k
        | 0, None -> 1.0 +. Float.ldexp (u -. 1.5) (k - 24)
        | 1, None -> Float.ldexp u (k * 10)
        | _, None -> (
            match f with
            | Oracle.Log10 -> 10.0 ** float_of_int (abs k mod 11)
            | _ -> Float.ldexp 1.0 (k * 10))
      in
      return (f, f32 x))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"binary32 edge inputs match the Ziv loop"
       ~print:(fun (f, x) -> Printf.sprintf "%s %h" (Oracle.name f) x)
       gen
       (fun (f, x) ->
         let q = Rat.of_float x in
         (not (Oracle.domain_ok f q))
         || List.for_all
              (fun (fmt, mode) ->
                Int64.equal
                  (Oracle.correctly_round f q ~fmt ~mode)
                  (Oracle.Reference.correctly_round f q ~fmt ~mode))
              ((tout, Softfp.RTO)
              :: all_modes_of [ Softfp.binary32; Softfp.bfloat16 ])))

(* Every Fival operation encloses the exact result at any points of its
   operands (here: the endpoints and a point between them). *)
let prop_fival_encloses =
  let gen_iv =
    QCheck2.Gen.(
      let* a = float_range (-1e6) 1e6 in
      let* e = int_range (-60) 20 in
      let* w = float_range 0.0 1.0 in
      let* t = float_range 0.0 1.0 in
      let lo = Float.ldexp a (e - 20) in
      let hi = lo +. Float.abs (Float.ldexp w e) in
      let mid = Float.min hi (lo +. (t *. (hi -. lo))) in
      return (Fival.make lo hi, [ lo; hi; mid ]))
  in
  let gen = QCheck2.Gen.(triple (int_bound 5) gen_iv gen_iv) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"Fival operations enclose exact results"
       gen
       (fun (op, (a, xs), (b, ys)) ->
         let inside iv q =
           let lo, hi = Fival.to_rats iv in
           Rat.compare lo q <= 0 && Rat.compare q hi <= 0
         in
         let for_pairs iv exact =
           List.for_all
             (fun x ->
               List.for_all
                 (fun y -> inside iv (exact (Rat.of_float x) (Rat.of_float y)))
                 ys)
             xs
         in
         match op with
         | 0 -> for_pairs (Fival.add a b) Rat.add
         | 1 -> for_pairs (Fival.sub a b) Rat.sub
         | 2 -> for_pairs (Fival.mul a b) Rat.mul
         | 3 ->
             let lo, hi = Fival.to_rats b in
             if Rat.sign lo <= 0 && Rat.sign hi >= 0 then true
             else for_pairs (Fival.div a b) Rat.div
         | 4 -> for_pairs (Fival.mul_2exp a 7) (fun x _ -> Rat.mul_pow2 x 7)
         | _ ->
             let e = Float.abs b.Fival.hi in
             for_pairs (Fival.widen a e) (fun x _ -> Rat.add x (Rat.of_float e))
             && for_pairs (Fival.widen a e) (fun x _ -> Rat.sub x (Rat.of_float e))))

(* The first-level kernels contain the 120-bit Ziv enclosure, so they
   enclose f x. *)
let prop_fast_enclosure_contains =
  let gen =
    QCheck2.Gen.(
      let* fidx = int_bound 5 in
      let f = List.nth Oracle.all fidx in
      let* x =
        if Funcspec.is_exp_family f then float_range (-40.0) 40.0
        else map (fun e -> Float.exp2 e) (float_range (-60.0) 60.0)
      in
      return (f, x))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"first-level kernels enclose f x"
       ~print:(fun (f, x) -> Printf.sprintf "%s %h" (Oracle.name f) x)
       gen
       (fun (f, x) ->
         let q = Rat.of_float x in
         let fast = (Funcspec.get f).Funcspec.fast_enclosure x in
         let flo, fhi = Fival.to_rats fast in
         let lo, hi = Ival.to_rats (Oracle.enclosure f q ~prec:120) in
         Rat.compare flo lo <= 0 && Rat.compare hi fhi <= 0))

let suite =
  [
    ("exact values", `Quick, test_exact_values);
    ("constants ln2/ln10", `Quick, test_constants);
    ("enclosures bracket glibc", `Quick, test_enclosure_brackets_native);
    ("enclosure width scales", `Quick, test_enclosure_widths_shrink);
    ("all rounding modes", `Quick, test_correctly_round_all_modes);
    ("exact correctly rounded", `Quick, test_correctly_round_exact);
    ("overflow/underflow shortcuts", `Quick, test_overflow_underflow_shortcuts);
    ("exp10 at large integers", `Quick, test_exp10_integer_range);
    ("domain handling", `Quick, test_domain);
    ("float64 vs glibc", `Slow, test_float64_against_native);
    ("rounder consistency", `Quick, test_rounder_consistency);
    ("names", `Quick, test_name_round_trip);
    prop_correctly_round_brackets;
    ( "first level = Ziv loop on every mini input",
      `Quick,
      test_differential_mini );
    ( "first level = Ziv loop on binary16/bfloat16",
      `Quick,
      test_differential_16bit );
    ("forced fallback at prec 52", `Quick, test_forced_fallback);
    prop_differential_binary32;
    prop_fival_encloses;
    prop_fast_enclosure_contains;
  ]
