(* The servable snapshot layer: build / persist / load round-trips, the
   warm-load store footprint (exactly one snapshot entry, no oracle or
   polynomial stage activity), and the batched evaluator's determinism
   contract (bit-identical to scalar eval_bits at every job count). *)

let tiny_cfg = Test_util.tiny_cfg

let tiny = tiny_cfg.Rlibm.Config.tin

let specs =
  [
    (Oracle.Exp2, Polyeval.EstrinFma, tiny_cfg);
    (Oracle.Log2, Polyeval.Horner, tiny_cfg);
  ]

let with_jobs j f =
  let prev = Parallel.jobs () in
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs prev) f

let build_ok specs =
  match Serve.build specs with
  | Ok t -> t
  | Error err ->
      Alcotest.failf "snapshot build failed: %s" (Diag.Error.to_string err)

let bits_of = Array.map Int64.bits_of_float

let test_cold_warm_roundtrip () =
  Test_util.in_fresh_dir (fun _dir ->
      let cold = build_ok specs in
      Alcotest.(check int) "entries" 2 (List.length (Serve.entries cold));
      let inputs = Genlibm.inputs_exhaustive tiny in
      let out_cold = Serve.eval_batch cold Oracle.Exp2 inputs in
      (* Second build: must load from the store, touching exactly one
         entry of exactly one kind — no oracle, interval, constraint or
         polynomial stage activity of any sort. *)
      Cache.reset_stats ();
      let warm = build_ok specs in
      (match Cache.stats_by_kind () with
      | [ ("snapshot", s) ] ->
          Alcotest.(check int) "snapshot hits" 1 s.Cache.hits;
          Alcotest.(check int) "snapshot misses" 0 s.Cache.misses
      | kinds ->
          Alcotest.failf "warm load touched kinds [%s]"
            (String.concat "; " (List.map fst kinds)));
      let out_warm = Serve.eval_batch warm Oracle.Exp2 inputs in
      Alcotest.(check bool) "warm results bit-identical" true
        (bits_of out_cold = bits_of out_warm);
      let out_log = Serve.eval_batch warm Oracle.Log2 inputs in
      Alcotest.(check int) "log batch length" (Array.length inputs)
        (Array.length out_log))

let test_batch_matches_scalar_at_any_j () =
  Test_util.in_fresh_dir (fun _dir ->
      let snap = build_ok specs in
      let inputs = Genlibm.inputs_exhaustive tiny in
      List.iter
        (fun func ->
          let e =
            match Serve.find snap func with
            | Some e -> e
            | None -> Alcotest.failf "%s missing" (Oracle.name func)
          in
          let scalar =
            Array.map (fun x -> Genlibm.eval_bits e.Serve.e_impl x) inputs
          in
          let b1 =
            with_jobs 1 (fun () -> Serve.eval_batch snap func inputs)
          in
          let b4 =
            with_jobs 4 (fun () -> Serve.eval_batch snap func inputs)
          in
          Alcotest.(check bool)
            (Oracle.name func ^ " -j1 = scalar")
            true
            (bits_of b1 = bits_of scalar);
          Alcotest.(check bool)
            (Oracle.name func ^ " -j4 = -j1")
            true
            (bits_of b4 = bits_of b1))
        [ Oracle.Exp2; Oracle.Log2 ])

let test_unknown_func_rejected () =
  Test_util.in_fresh_dir (fun _dir ->
      let snap = build_ok [ (Oracle.Exp2, Polyeval.Horner, tiny_cfg) ] in
      Alcotest.check_raises "not in snapshot"
        (Invalid_argument "Serve.eval_batch: log10 is not in this snapshot")
        (fun () ->
          ignore (Serve.eval_batch snap Oracle.Log10 [| 0L |] : float array)))

(* Lookups are per-function, so a spec list naming one function twice
   must be rejected up front — before the fix the second entry was
   silently shadowed by the first and a caller asking for (exp2, horner)
   could be served (exp2, estrin-fma). *)
let test_duplicate_func_rejected () =
  Test_util.in_fresh_dir (fun _dir ->
      let dup =
        [
          (Oracle.Exp2, Polyeval.EstrinFma, tiny_cfg);
          (Oracle.Log2, Polyeval.Horner, tiny_cfg);
          (Oracle.Exp2, Polyeval.Horner, tiny_cfg);
        ]
      in
      Cache.reset_stats ();
      (match Serve.build dup with
      | Ok _ -> Alcotest.fail "duplicate spec accepted"
      | Error (Diag.Error.Bad_config { what } as err) ->
          let msg = Diag.Error.to_string err in
          let contains needle hay =
            let nl = String.length needle and hl = String.length hay in
            let rec at i =
              i + nl <= hl && (String.sub hay i nl = needle || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "error names the function (%s)" msg)
            true
            (contains "exp2" what && contains "duplicate" what
            && contains "exp2" msg && contains "duplicate" msg)
      | Error err ->
          Alcotest.failf "expected Bad_config, got %s"
            (Diag.Error.to_string err));
      (* The rejection must happen before any resolution: no stage ran,
         nothing was persisted. *)
      Alcotest.(check (list string)) "no store traffic" []
        (List.map fst (Cache.stats_by_kind ())))

let test_key_pins_knobs () =
  let k = Serve.snapshot_key specs in
  Alcotest.(check string) "key is deterministic" k (Serve.snapshot_key specs);
  let other_scheme =
    [
      (Oracle.Exp2, Polyeval.Horner, tiny_cfg);
      (Oracle.Log2, Polyeval.Horner, tiny_cfg);
    ]
  in
  Alcotest.(check bool) "scheme changes key" true
    (k <> Serve.snapshot_key other_scheme);
  let other_cfg =
    [
      (Oracle.Exp2, Polyeval.EstrinFma, { tiny_cfg with Rlibm.Config.pieces = 3 });
      (Oracle.Log2, Polyeval.Horner, tiny_cfg);
    ]
  in
  Alcotest.(check bool) "config changes key" true
    (k <> Serve.snapshot_key other_cfg);
  Alcotest.(check bool) "order changes key" true
    (k <> Serve.snapshot_key (List.rev specs))

let suite =
  [
    ("snapshot key pins every knob", `Quick, test_key_pins_knobs);
    ("duplicate function rejected", `Quick, test_duplicate_func_rejected);
    ("cold build / warm load round-trip", `Slow, test_cold_warm_roundtrip);
    ("batch = scalar at -j 1 and -j 4", `Slow, test_batch_matches_scalar_at_any_j);
    ("unknown function rejected", `Slow, test_unknown_func_rejected);
  ]
