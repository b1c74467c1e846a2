(* Tests for the staged artifact pipeline: the key invalidation graph
   (each knob orphans exactly the downstream stages), stage-level
   hit/rebuild behaviour, and the resume guarantee — a run restarted
   after the shallow stages completed rebuilds only the deep stages and
   still produces bit-identical output at every job count. *)

let tiny_cfg = Test_util.tiny_cfg

(* The function's observable artifacts as exact bits: coefficients,
   degrees and the special table.  (Deliberately not the shared oracle
   table: verification lazily installs shortcut-path entries into it, so
   its in-process extent depends on whether the verdict stage ran — a
   warm run that loads the verdict skips exactly those lookups.) *)
let fingerprint (g : Rlibm.Generate.generated) =
  let coeffs =
    Array.to_list g.Rlibm.Generate.pieces
    |> List.concat_map (fun (p : Polyeval.compiled) ->
           Array.to_list (Array.map Int64.bits_of_float p.Polyeval.data))
  in
  let specials =
    Hashtbl.fold
      (fun x v acc -> (x, Int64.bits_of_float v) :: acc)
      g.Rlibm.Generate.specials []
    |> List.sort compare
  in
  (coeffs, Array.to_list g.Rlibm.Generate.degrees, specials)

(* One full pipeline pass from a cold in-process state (the disk store is
   whatever the test arranged): per-stage statuses plus the output
   fingerprint and verdict. *)
let run_pass ?(scheme = Polyeval.Estrin) ?(func = Oracle.Exp2)
    ?(cfg = tiny_cfg) () =
  Rlibm.Constraints.clear_memory_cache ();
  let events, result = Pipeline.run_stages ~cfg ~scheme func in
  let statuses =
    List.map (fun e -> (e.Pipeline.ev_stage, e.Pipeline.ev_status)) events
  in
  match result with
  | Error err ->
      Alcotest.failf "generation failed: %s" (Diag.Error.to_string err)
  | Ok (g, rep) -> (statuses, fingerprint g, rep)

let warm_ok ?schemes ?through ?shards ?only_shard pairs =
  match Pipeline.warm ?schemes ?through ?shards ?only_shard pairs with
  | Ok report -> report
  | Error err -> Alcotest.failf "warm failed: %s" (Diag.Error.to_string err)

(* Unwrap a Result-typed oracle stage in tests that arrange valid shard
   parameters. *)
let oracle_ok ?shards ?only_shard ~cfg func =
  match Pipeline.oracle_stage ?shards ?only_shard ~cfg func with
  | Ok t -> t
  | Error err ->
      Alcotest.failf "oracle stage failed: %s" (Diag.Error.to_string err)

let status_t =
  Alcotest.(
    list
      (pair
         (testable
            (Fmt.of_to_string Pipeline.stage_name)
            (fun a b -> a = b))
         (testable
            (Fmt.of_to_string (function
              | Pipeline.Hit -> "hit"
              | Pipeline.Rebuilt -> "rebuilt"))
            (fun a b -> a = b))))

let all_of st = List.map (fun s -> (s, st)) Pipeline.all_stages

(* ---------- the key invalidation graph ---------- *)

let test_keys () =
  let cfg = tiny_cfg and f = Oracle.Exp2 and scheme = Polyeval.Estrin in
  let keys c =
    ( Pipeline.oracle_key ~cfg:c f,
      Pipeline.intervals_key ~cfg:c f,
      Pipeline.constraints_key ~cfg:c f,
      Pipeline.poly_key ~cfg:c ~scheme f,
      Pipeline.verdict_key ~cfg:c ~scheme f )
  in
  let o0, i0, c0, p0, v0 = keys cfg in
  (* pieces: constraints and below *)
  let o, i, c, p, v =
    keys { cfg with Rlibm.Config.pieces = cfg.Rlibm.Config.pieces + 1 }
  in
  Alcotest.(check bool) "pieces keeps oracle+intervals" true (o = o0 && i = i0);
  Alcotest.(check bool) "pieces invalidates constraints+" true
    (c <> c0 && p <> p0 && v <> v0);
  (* table_bits: constraints and below *)
  let o, i, c, p, v =
    keys { cfg with Rlibm.Config.table_bits = cfg.Rlibm.Config.table_bits + 1 }
  in
  Alcotest.(check bool) "table_bits keeps oracle+intervals" true
    (o = o0 && i = i0);
  Alcotest.(check bool) "table_bits invalidates constraints+" true
    (c <> c0 && p <> p0 && v <> v0);
  (* degree/round/special budgets: polynomial and below *)
  let o, i, c, p, v =
    keys { cfg with Rlibm.Config.max_rounds = cfg.Rlibm.Config.max_rounds + 1 }
  in
  Alcotest.(check bool) "budgets keep oracle..constraints" true
    (o = o0 && i = i0 && c = c0);
  Alcotest.(check bool) "budgets invalidate poly+" true (p <> p0 && v <> v0);
  (* scheme: polynomial and below *)
  Alcotest.(check bool) "scheme invalidates poly+" true
    (Pipeline.poly_key ~cfg ~scheme:Polyeval.Horner f <> p0
    && Pipeline.verdict_key ~cfg ~scheme:Polyeval.Horner f <> v0);
  (* narrow: verdict only *)
  Alcotest.(check bool) "narrow invalidates only the verdict" true
    (Pipeline.verdict_key ~narrow:false ~cfg ~scheme f <> v0);
  (* input format: everything *)
  let o, i, c, p, v =
    keys { cfg with Rlibm.Config.tin = Softfp.make_fmt ~ebits:4 ~prec:8 }
  in
  Alcotest.(check bool) "format invalidates everything" true
    (o <> o0 && i <> i0 && c <> c0 && p <> p0 && v <> v0);
  (* every stage key is a distinct store entry *)
  Alcotest.(check int) "five distinct keys" 5
    (List.length (List.sort_uniq compare [ o0; i0; c0; p0; v0 ]))

(* ---------- sampled input sets ---------- *)

(* A [Sampled] input set tags every key whose payload depends on the
   inputs; exhaustive keys carry no tag, so stores warmed before sampled
   configurations existed stay valid.  And a sampled generation persists
   and resumes like any other. *)
let test_sampled_inputs () =
  let f = Oracle.Exp2 and scheme = Polyeval.Estrin in
  let sampled seed =
    {
      tiny_cfg with
      Rlibm.Config.inputs = Rlibm.Config.Sampled { count = 400; seed };
    }
  in
  let keys cfg =
    [
      Pipeline.intervals_key ~cfg f;
      Pipeline.constraints_key ~cfg f;
      Pipeline.poly_key ~cfg ~scheme f;
      Pipeline.verdict_key ~cfg ~scheme f;
      Pipeline.oracle_shard_key ~cfg ~shards:4 ~index:1 f;
    ]
  in
  let exhaustive = keys tiny_cfg in
  let seed1 = keys (sampled 1) and seed2 = keys (sampled 2) in
  List.iteri
    (fun i e ->
      let k1 = List.nth seed1 i and k2 = List.nth seed2 i in
      Alcotest.(check bool) (k1 ^ " differs from the exhaustive key") true
        (k1 <> e);
      Alcotest.(check bool) (k1 ^ " differs from another seed's") true
        (k1 <> k2))
    exhaustive;
  Alcotest.(check string) "whole-table oracle key is input-set free"
    (Pipeline.oracle_key ~cfg:tiny_cfg f)
    (Pipeline.oracle_key ~cfg:(sampled 1) f);
  Alcotest.(check string) "exhaustive poly key unchanged"
    "exp2-in4.7-out4.9-p1-tb3-estrin-d2.6-r20-sp40-ply-v3.1.1"
    (Pipeline.poly_key ~cfg:tiny_cfg ~scheme f);
  Test_util.in_fresh_dir (fun _d ->
      let generate () =
        Rlibm.Constraints.clear_memory_cache ();
        Pipeline.reset_events ();
        let g =
          match Pipeline.generate ~cfg:(sampled 1) ~scheme f with
          | Ok g -> g
          | Error err ->
              Alcotest.failf "sampled generation failed: %s"
                (Diag.Error.to_string err)
        in
        let poly =
          List.find_map
            (fun (e : Pipeline.event) ->
              if e.ev_stage = Pipeline.Poly then Some e.ev_status else None)
            (Pipeline.events ())
        in
        (poly, fingerprint g)
      in
      let cold_poly, cold = generate () in
      let warm_poly, warm = generate () in
      Alcotest.(check bool) "cold run computes the poly stage" true
        (cold_poly = Some Pipeline.Rebuilt);
      Alcotest.(check bool) "second run is a poly hit" true
        (warm_poly = Some Pipeline.Hit);
      Alcotest.(check bool) "identical fingerprint" true (warm = cold))

(* ---------- stage invalidation: exactly the affected stages rebuild ---------- *)

let test_stage_invalidation () =
  Test_util.in_fresh_dir (fun _d ->
      let cold_st, cold_fp, cold_rep = run_pass () in
      Alcotest.check status_t "cold run rebuilds every stage"
        (all_of Pipeline.Rebuilt) cold_st;
      let warm_st, warm_fp, warm_rep = run_pass () in
      Alcotest.check status_t "warm run hits every stage"
        (all_of Pipeline.Hit) warm_st;
      Alcotest.(check bool) "warm output bit-identical" true
        (warm_fp = cold_fp && warm_rep = cold_rep);
      (* pieces change: oracle + intervals survive, the rest rebuild *)
      let cfg2 = { tiny_cfg with Rlibm.Config.pieces = 2 } in
      let st2, _, _ = run_pass ~cfg:cfg2 () in
      Alcotest.check status_t "pieces change rebuilds constraints+"
        Pipeline.
          [
            (Oracle, Hit);
            (Intervals, Hit);
            (Constraints, Rebuilt);
            (Poly, Rebuilt);
            (Verdict, Rebuilt);
          ]
        st2;
      (* scheme change: everything up to constraints survives *)
      let st3, _, _ = run_pass ~scheme:Polyeval.HornerFma () in
      Alcotest.check status_t "scheme change rebuilds poly+"
        Pipeline.
          [
            (Oracle, Hit);
            (Intervals, Hit);
            (Constraints, Hit);
            (Poly, Rebuilt);
            (Verdict, Rebuilt);
          ]
        st3;
      (* and the original configuration still hits everywhere *)
      let again_st, again_fp, _ = run_pass () in
      Alcotest.check status_t "original knobs still fully warm"
        (all_of Pipeline.Hit) again_st;
      Alcotest.(check bool) "original output unchanged" true
        (again_fp = cold_fp))

(* ---------- resume: shallow stages persisted, deep stages rebuilt ---------- *)

let test_resume_bit_identical () =
  let saved_jobs = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved_jobs)
    (fun () ->
      (* The reference output, from an uninterrupted cold run. *)
      let reference =
        Test_util.in_fresh_dir (fun _d ->
            Parallel.set_jobs 1;
            let _, fp, rep = run_pass () in
            (fp, rep))
      in
      List.iter
        (fun jobs ->
          Test_util.in_fresh_dir (fun _d ->
              Parallel.set_jobs jobs;
              (* "Interrupted" run: only stages 1-2 completed. *)
              Rlibm.Constraints.clear_memory_cache ();
              let report =
                warm_ok ~through:Pipeline.Intervals
                  [ (Oracle.Exp2, tiny_cfg) ]
              in
              Alcotest.(check int) "one pair warmed" 1
                (List.length report.Pipeline.wm_entries);
              Alcotest.(check int) "nothing skipped" 0
                (List.length report.Pipeline.wm_failed);
              (* Resume: stages 1-2 load, stages 3-5 rebuild. *)
              let st, fp, rep = run_pass () in
              Alcotest.check status_t
                (Printf.sprintf "resume at -j %d rebuilds stages 3+" jobs)
                Pipeline.
                  [
                    (Oracle, Hit);
                    (Intervals, Hit);
                    (Constraints, Rebuilt);
                    (Poly, Rebuilt);
                    (Verdict, Rebuilt);
                  ]
                st;
              Alcotest.(check bool)
                (Printf.sprintf "resumed output at -j %d = cold -j 1" jobs)
                true
                ((fp, rep) = reference)))
        [ 1; 4 ])

(* ---------- oracle shards ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let shard_stats () =
  List.assoc_opt "oracle-shard" (Cache.stats_by_kind ())

(* The shard grid is a fixed partition of the input universe: contiguous,
   complete, in order — and a pure function of (n, shards), so the job
   count cannot move a shard boundary.  Keys are distinct per index and
   never collide with the whole-table key. *)
let test_shard_grid () =
  List.iter
    (fun (n, shards) ->
      let ranges = List.init shards (Pipeline.shard_range ~n ~shards) in
      let lo0, _ = List.hd ranges in
      Alcotest.(check int) "starts at 0" 0 lo0;
      let rec chained = function
        | [] | [ _ ] -> true
        | (_, hi) :: ((lo, _) :: _ as rest) -> hi = lo && chained rest
      in
      Alcotest.(check bool)
        (Printf.sprintf "contiguous n=%d s=%d" n shards)
        true (chained ranges);
      let _, hil = List.nth ranges (shards - 1) in
      Alcotest.(check int) "ends at n" n hil)
    [ (7936, 1); (7936, 4); (7936, 7); (10, 16); (0, 3) ];
  let saved = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved)
    (fun () ->
      let grid () = List.init 4 (Pipeline.shard_range ~n:7936 ~shards:4) in
      Parallel.set_jobs 1;
      let g1 = grid () in
      Parallel.set_jobs 4;
      Alcotest.(check bool) "grid independent of -j" true (g1 = grid ()));
  let key i =
    Pipeline.oracle_shard_key ~cfg:tiny_cfg ~shards:4 ~index:i Oracle.Exp2
  in
  let keys = List.init 4 key in
  Alcotest.(check int) "four distinct shard keys" 4
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool) "distinct from the whole-table key" false
    (List.mem (Pipeline.oracle_key ~cfg:tiny_cfg Oracle.Exp2) keys);
  Alcotest.(check bool) "shard count is part of the key" true
    (key 0 <> Pipeline.oracle_shard_key ~cfg:tiny_cfg ~shards:8 ~index:0
                 Oracle.Exp2)

(* A sharded cold run must be indistinguishable from an unsharded one
   downstream: the republished whole-table artifact byte-identical, and
   every later stage hitting the very same keys with the same content —
   at -j 1 and -j 4. *)
let test_sharded_bit_identical () =
  let saved_jobs = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved_jobs)
    (fun () ->
      let okey = Pipeline.oracle_key ~cfg:tiny_cfg Oracle.Exp2 in
      let reference =
        Test_util.in_fresh_dir (fun _d ->
            Parallel.set_jobs 1;
            Rlibm.Constraints.clear_memory_cache ();
            let _, fp, rep = run_pass () in
            (read_file (Cache.path_of_key okey), fp, rep))
      in
      List.iter
        (fun jobs ->
          Test_util.in_fresh_dir (fun _d ->
              Parallel.set_jobs jobs;
              Rlibm.Constraints.clear_memory_cache ();
              let _ = oracle_ok ~shards:5 ~cfg:tiny_cfg Oracle.Exp2 in
              let ref_bytes, ref_fp, ref_rep = reference in
              Alcotest.(check bool)
                (Printf.sprintf "whole-table artifact bytes at -j %d" jobs)
                true
                (read_file (Cache.path_of_key okey) = ref_bytes);
              (* Downstream stages consume the republished table: the
                 oracle stage must hit, and output stays bit-identical. *)
              let st, fp, rep = run_pass () in
              Alcotest.(check bool)
                (Printf.sprintf "oracle hits after sharded warm -j %d" jobs)
                true
                (List.assoc Pipeline.Oracle st = Pipeline.Hit);
              Alcotest.(check bool)
                (Printf.sprintf "downstream bit-identical -j %d" jobs)
                true
                (fp = ref_fp && rep = ref_rep)))
        [ 1; 4 ])

(* Cooperative fill: shards published by a killed (or distributed)
   warmer are loaded, never recomputed.  Two single-shard invocations
   stand in for the interrupted run; the resuming full run must load
   exactly those two shards and compute exactly the other two. *)
let test_shard_resume () =
  Test_util.in_fresh_dir (fun _d ->
      List.iter
        (fun k ->
          Rlibm.Constraints.clear_memory_cache ();
          ignore
            (oracle_ok ~shards:4 ~only_shard:k ~cfg:tiny_cfg Oracle.Exp2
              : (int64, int64) Hashtbl.t))
        [ 0; 1 ];
      (* Resume. *)
      Rlibm.Constraints.clear_memory_cache ();
      Cache.reset_stats ();
      let t = oracle_ok ~shards:4 ~cfg:tiny_cfg Oracle.Exp2 in
      (match shard_stats () with
      | None -> Alcotest.fail "no oracle-shard store traffic on resume"
      | Some s ->
          Alcotest.(check int) "published shards loaded, not recomputed" 2
            s.Cache.hits;
          Alcotest.(check int) "missing shards computed once" 2
            s.Cache.misses);
      (* The assembled table equals an unsharded run's. *)
      let unsharded =
        Test_util.in_fresh_dir (fun _d ->
            Rlibm.Constraints.clear_memory_cache ();
            oracle_ok ~cfg:tiny_cfg Oracle.Exp2)
      in
      let sorted tbl =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
      in
      Alcotest.(check bool) "merged table = unsharded table" true
        (sorted t = sorted unsharded);
      (* Fully warm: the republished whole table satisfies every shard
         with zero store traffic and zero Ziv loops. *)
      Rlibm.Constraints.clear_memory_cache ();
      Cache.reset_stats ();
      ignore
        (oracle_ok ~shards:4 ~cfg:tiny_cfg Oracle.Exp2
          : (int64, int64) Hashtbl.t);
      (match shard_stats () with
      | None -> ()
      | Some s ->
          Alcotest.(check int) "warm run loads no shard" 0 s.Cache.hits;
          Alcotest.(check int) "warm run computes no shard" 0 s.Cache.misses);
      (* Bad shard parameters are rejected with a typed error, not an
         exception. *)
      (match Pipeline.oracle_stage ~shards:0 ~cfg:tiny_cfg Oracle.Exp2 with
      | Error (Diag.Error.Shard_range { count = 0; _ }) -> ()
      | Ok _ -> Alcotest.fail "shards < 1 accepted"
      | Error e ->
          Alcotest.failf "expected Shard_range, got %s"
            (Diag.Error.to_string e));
      match
        Pipeline.oracle_stage ~shards:4 ~only_shard:4 ~cfg:tiny_cfg Oracle.Exp2
      with
      | Error (Diag.Error.Shard_range { index = 4; count = 4 }) -> ()
      | Ok _ -> Alcotest.fail "out-of-range only_shard accepted"
      | Error e ->
          Alcotest.failf "expected Shard_range, got %s"
            (Diag.Error.to_string e))

(* Two warmer *processes* racing on one store directory: the O_EXCL-temp
   publish protocol makes the race benign (identical content, atomic
   rename), and the store must end up byte-identical to a lone
   unsharded run's.  [Unix.fork] (and everything built on it, like
   [create_process]) is forbidden once any domain has ever been spawned
   in this process, so the racers are launched through [Sys.command]
   (C-level system(3)) against the built CLI — which also exercises the
   --shards flag end to end. *)
let rlibm_gen_exe =
  (* Tests run with cwd = _build/default/test; the binary is a declared
     dependency in test/dune. *)
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "rlibm_gen.exe")

let test_shard_concurrent () =
  if not (Sys.file_exists rlibm_gen_exe) then
    Alcotest.failf "rlibm_gen binary not found at %s" rlibm_gen_exe;
  let saved_jobs = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved_jobs)
    (fun () ->
      Parallel.set_jobs 1;
      let okey = Pipeline.oracle_key ~cfg:tiny_cfg Oracle.Exp2 in
      let ref_bytes =
        Test_util.in_fresh_dir (fun _d ->
            Rlibm.Constraints.clear_memory_cache ();
            let _, _, _ = run_pass () in
            read_file (Cache.path_of_key okey))
      in
      Test_util.in_fresh_dir (fun dir ->
          let warmer log =
            Printf.sprintf
              "%s warm --func exp2 --through oracle --shards 4 --ebits 4 \
               --prec 7 --table-bits 3 -j 1 --cache-dir %s > %s 2>&1"
              (Filename.quote rlibm_gen_exe) (Filename.quote dir)
              (Filename.quote (Filename.concat dir log))
          in
          let cmd =
            Printf.sprintf "%s & p1=$!; %s & p2=$!; wait $p1 && wait $p2"
              (warmer "warmer1.log") (warmer "warmer2.log")
          in
          let rc = Sys.command cmd in
          if rc <> 0 then begin
            List.iter
              (fun log ->
                let p = Filename.concat dir log in
                if Sys.file_exists p then prerr_string (read_file p))
              [ "warmer1.log"; "warmer2.log" ];
            Alcotest.failf "concurrent warmers exited with %d" rc
          end;
          Alcotest.(check bool)
            "racing warmers leave the unsharded artifact bytes" true
            (read_file (Cache.path_of_key okey) = ref_bytes)))

(* warm must report skipped generations, not swallow them: a config
   whose degree search cannot succeed fails the polynomial stage for
   every scheme, and each failure lands in wm_failed. *)
let test_warm_reports_failures () =
  Test_util.in_fresh_dir (fun _d ->
      Rlibm.Constraints.clear_memory_cache ();
      let doomed =
        {
          tiny_cfg with
          Rlibm.Config.min_degree = 0;
          max_degree = 0;
          max_rounds = 1;
          max_specials = 0;
        }
      in
      let report =
        warm_ok ~schemes:[ Polyeval.Estrin ] [ (Oracle.Exp2, doomed) ]
      in
      Alcotest.(check int) "entry still warmed through the oracle" 1
        (List.length report.Pipeline.wm_entries);
      (match report.Pipeline.wm_failed with
      | [ (Oracle.Exp2, Polyeval.Estrin, err) ] ->
          (* a zeroed budget must surface as a typed generation error
             (infeasible at the only degree tried, or out of budget) *)
          (match err with
          | Diag.Error.Budget_exhausted { func; scheme; max_degree; _ } ->
              Alcotest.(check string) "failure func" "exp2" func;
              Alcotest.(check string) "failure scheme" "estrin" scheme;
              Alcotest.(check int) "failure degree bound" 0 max_degree
          | Diag.Error.Lp_infeasible { func; scheme; degree; _ } ->
              Alcotest.(check string) "failure func" "exp2" func;
              Alcotest.(check string) "failure scheme" "estrin" scheme;
              Alcotest.(check int) "failure degree bound" 0 degree
          | e ->
              Alcotest.failf "expected a typed generation failure, got %s"
                (Diag.Error.to_string e));
          Alcotest.(check bool) "failure message non-empty" true
            (Diag.Error.to_string err <> "")
      | l -> Alcotest.failf "expected one failure, got %d" (List.length l));
      (* A healthy config reports no failures. *)
      Rlibm.Constraints.clear_memory_cache ();
      let ok =
        warm_ok ~schemes:[ Polyeval.Estrin ] [ (Oracle.Exp2, tiny_cfg) ]
      in
      Alcotest.(check int) "healthy warm skips nothing" 0
        (List.length ok.Pipeline.wm_failed))

let suite =
  [
    ("key invalidation graph", `Quick, test_keys);
    ("shard grid and keys", `Quick, test_shard_grid);
    ("stage invalidation rebuilds exactly downstream", `Slow,
     test_stage_invalidation);
    ("resume is bit-identical at -j 1 and -j 4", `Slow,
     test_resume_bit_identical);
    ("sharded run bit-identical to unsharded", `Slow,
     test_sharded_bit_identical);
    ("interrupted sharded warm resumes without recompute", `Slow,
     test_shard_resume);
    ("concurrent warmers fill one store cooperatively", `Slow,
     test_shard_concurrent);
    ("warm reports skipped generations", `Slow, test_warm_reports_failures);
    ("sampled input set: keys and persistence", `Slow, test_sampled_inputs);
  ]
