(* The repository's benchmark: three closed-loop, single-client
   workloads over the public functions of lib/pipeline, lib/lp,
   lib/serve, lib/genlibm and lib/polyeval.

     main.exe --workload gen-exp2|prefill|serve-mix --seed N
              --seconds S --trace 0|1

   Human-readable lines go to stdout; the last line is one JSON object
   {correct, attempted, failed, metrics}.  With --trace 0 the metrics
   are the end-to-end ones, measured with no Diag sink beyond the
   default warning sink.  With --trace 1 the run first repeats itself
   untraced in a child process (the reference for the tracing
   overhead), then runs the workload with a Debug memory sink and the
   benchmark's own spans, and reports the per-layer metrics.
   perfbench/README.md lists which end-to-end metric each per-layer
   metric should move. *)

(* Start-up probe: the process start-up (runtime and every library's
   module initialisation) is part of each workload's set-up time. *)
let () = if Array.length Sys.argv = 2 && Sys.argv.(1) = "--probe" then exit 0

let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ---------- metrics and output ---------- *)

let say fmt = Printf.ksprintf print_endline fmt

let end_to_end =
  [ ("setup_s", "s"); ("gen_cold_s", "s"); ("latency_ms", "ms"); ("peak_rss_mb", "MB") ]

(* The served entries of serve-mix, in round-robin order. *)
let served =
  [
    (Oracle.Exp2, Polyeval.EstrinFma);
    (Oracle.Log2, Polyeval.EstrinFma);
    (Oracle.Log2, Polyeval.Horner);
  ]

let tag (f, s) = Oracle.name f ^ "." ^ Polyeval.scheme_name s

let per_layer =
  [
    ("pipeline.oracle_s", "s"); ("pipeline.intervals_s", "s");
    ("pipeline.constraints_s", "s"); ("pipeline.poly_s", "s");
    ("pipeline.verdict_s", "s"); ("oracle.entries", "count");
    ("oracle.us_per_entry", "us"); ("rlibm.constraint_points", "count");
    ("rlibm.rounds", "count"); ("lp.solves", "count"); ("lp.pivots", "count");
    ("lp.max_entry_bits", "bits"); ("lp.max_rows", "count"); ("lp.solve_s", "s");
    ("genlibm.verify_checks", "count"); ("gen_specials", "count");
    ("gen_degree_sum", "count"); ("gen_warm_ms", "ms"); ("snapshot_load_ms", "ms");
    ("cache.bytes_written", "bytes"); ("cache.misses", "count");
    ("cache.bytes_read", "bytes"); ("cache.hits", "count");
    ("cache.warm_hit_ratio", "ratio"); ("cache.corrupt_rejected", "count");
    ("cache.retried", "count"); ("pipeline.shard_entries_max", "count");
    ("pipeline.shard_imbalance", "ratio"); ("gc.minor_words", "words");
    ("gc.major_collections", "count"); ("serve_ns_per_eval", "ns");
    ("serve_ns_per_eval_p99", "ns"); ("serve.batches", "count");
    ("native_ns_per_eval", "ns"); ("native_ns_per_eval_p99", "ns");
    ("native.batches", "count"); ("genlibm.kernel_ns_per_eval", "ns");
    ("reduction.reduce_into_ns_per_eval", "ns");
    ("polyeval.eval_into_ns_per_eval", "ns");
    ("serve.minor_words_per_eval", "words"); ("serve.parallel_efficiency", "ratio");
  ]
  @ List.concat_map
      (fun e ->
        let t = tag e in
        [
          ("serve.shortcut_share." ^ t, "ratio"); ("serve.special_share." ^ t, "ratio");
          ("serve.poly_share." ^ t, "ratio"); ("serve.ns_per_eval." ^ t, "ns");
          ("native.ns_per_eval." ^ t, "ns"); ("codegen.fma_insns." ^ t, "count");
        ])
      served
  @ [
      ("native.speedup.log2.estrin-fma_vs_horner", "ratio");
      ("trace.overhead_gen_cold_s", "s"); ("trace.overhead_serve_ns_per_eval", "ns");
      ("trace.spans", "count");
    ]

let metrics : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace metrics name v
let seti name v = set name (float_of_int v)
let get name = Option.value ~default:0. (Hashtbl.find_opt metrics name)

let attempted = ref 0
let failed = ref 0

let op ok =
  incr attempted;
  if not ok then incr failed

(* Exact work counters: printed in every run and compared against the
   previous run of the same executable, workload and mode. *)
let counters : (string * int) list ref = ref []

let count name v =
  counters := (name, v) :: List.remove_assoc name !counters;
  say "counter %-40s %d" name v

(* A counter that is also a per-layer metric. *)
let exact name v =
  count name v;
  seti name v

(* Figures the tracing overhead is computed from, one "summary" line
   each; a traced run reads them back from its untraced child. *)
let summary : (string, float) Hashtbl.t = Hashtbl.create 4

let summarize name v =
  Hashtbl.replace summary name v;
  say "summary %s %.17g" name v

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit ~trace ~correct =
  let spec = if trace then per_layer else end_to_end in
  let body =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt metrics name with
          | Some v when Float.is_finite v -> v
          | Some _ -> failwith ("non-finite metric " ^ name)
          | None when trace -> 0. (* layer not exercised by this workload *)
          | None -> failwith ("end-to-end metric not measured: " ^ name)
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
      spec
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (String.concat ", " body)

(* ---------- measurement helpers ---------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile q a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = percentile 0.5 a

(* Closed loop: run [f] until [seconds] have passed and at least
   [min_iters] times; returns each call's wall time. *)
let loop ~seconds ~min_iters f =
  let times = ref [] and n = ref 0 in
  let stop = now () +. seconds in
  while !n < min_iters || now () < stop do
    let (), dt = timed f in
    times := dt :: !times;
    incr n
  done;
  Array.of_list (List.rev !times)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | Some _ -> find ()
        | None -> failwith "VmHWM not found"
      in
      find ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Deterministic permutation of [l] from the seed. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let wait_ok what pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (what ^ " failed")

(* ---------- set-up ---------- *)

type ctx = { seed : int; seconds : float; trace : bool; work : string }

(* Median wall time of starting this executable and letting it exit at
   the top of main: runtime start-up plus module initialisation. *)
let startup_s () =
  median
    (Array.init 11 (fun _ ->
         snd
           (timed (fun () ->
                wait_ok "start-up probe"
                  (Unix.create_process Sys.executable_name
                     [| Sys.executable_name; "--probe" |]
                     Unix.stdin Unix.stdout Unix.stderr)))))

let store_seq = ref 0

(* An empty store, with every in-process memo and counter dropped. *)
let fresh_store ctx =
  incr store_seq;
  let d = Filename.concat ctx.work (Printf.sprintf "store%d" !store_seq) in
  Unix.mkdir d 0o755;
  Cache.set_dir d;
  Rlibm.Constraints.clear_memory_cache ();
  Cache.reset_stats ();
  Pipeline.reset_events ()

(* Set-up of the generating workloads: an empty store, a fresh worker
   pool of [jobs] domains and the exhaustive input universe of every
   config. *)
let gen_setup ctx ~jobs cfgs () =
  fresh_store ctx;
  Parallel.shutdown ();
  Parallel.set_jobs jobs;
  ignore (Parallel.init 64 Fun.id : int array);
  List.iter
    (fun (cfg : Rlibm.Config.t) ->
      ignore (Genlibm.inputs_exhaustive cfg.Rlibm.Config.tin : int64 array))
    cfgs

(* Start-up plus the median of eleven in-process set-ups; the store of
   the last one is the one the workload uses. *)
let timed_gen_setup ctx ~jobs cfgs =
  let startup = startup_s () in
  startup +. median (Array.init 11 (fun _ -> snd (timed (gen_setup ctx ~jobs cfgs))))

(* ---------- correctness reference ---------- *)

(* lib/oracle's round-to-odd result in the widened target for every
   pattern of the input format.  Non-finite inputs follow IEEE
   semantics and domain errors are checked the way Genlibm.verify
   checks them. *)
type expect = Rto of int64 | Nan | Value of float

let reference func (cfg : Rlibm.Config.t) =
  let tin = cfg.Rlibm.Config.tin and tout = Rlibm.Config.tout cfg in
  Parallel.init (1 lsl Softfp.width tin) (fun p ->
      let x = Int64.of_int p in
      match Softfp.classify tin x with
      | Softfp.NaN -> Nan
      | Softfp.Inf ->
          if not (Softfp.sign_bit tin x) then Value Float.infinity
          else if Funcspec.is_exp_family func then Value 0.
          else Nan
      | _ ->
          let xq = Softfp.to_rat tin x in
          if Oracle.domain_ok func xq then
            Rto (Oracle.correctly_round func xq ~fmt:tout ~mode:Softfp.RTO)
          else if Rat.sign xq < 0 then Nan
          else Value Float.neg_infinity)

let correct_result tout e v =
  match e with
  | Nan -> Float.is_nan v
  | Value w -> Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w)
  | Rto y -> Int64.equal (Genlibm.round_result tout Softfp.RTO v) y

(* Every output of [g] over its input format against the reference. *)
let outputs_ok ref_ (g : Genlibm.t) =
  let tout = Rlibm.Config.tout g.Rlibm.Generate.cfg in
  let wrong = ref 0 in
  Array.iteri
    (fun p e ->
      if not (correct_result tout e (Genlibm.eval_bits g (Int64.of_int p))) then incr wrong)
    ref_;
  if !wrong > 0 then
    say "%s/%s: %d outputs differ from the oracle reference"
      (Oracle.name g.Rlibm.Generate.family.Rlibm.Reduction.func)
      (Polyeval.scheme_name g.Rlibm.Generate.scheme)
      !wrong;
  !wrong = 0

(* ---------- per-layer readings ---------- *)

let cache_counters prefix (s : Cache.stats) =
  count (prefix ^ ".hits") s.Cache.hits;
  count (prefix ^ ".misses") s.misses;
  count (prefix ^ ".bytes_read") s.bytes_read;
  count (prefix ^ ".bytes_written") s.bytes_written;
  count (prefix ^ ".corrupt_rejected") s.corrupt_rejected;
  count (prefix ^ ".retried") s.retried

(* [cold]: the cold pass; [warm]: one warm re-resolution. *)
let cache_metrics ~(cold : Cache.stats) ~(warm : Cache.stats) =
  cache_counters "cache.cold" cold;
  cache_counters "cache.warm" warm;
  seti "cache.bytes_written" cold.Cache.bytes_written;
  seti "cache.misses" cold.misses;
  seti "cache.bytes_read" warm.Cache.bytes_read;
  seti "cache.hits" warm.hits;
  let loads = warm.hits + warm.misses + warm.corrupt_rejected in
  set "cache.warm_hit_ratio" (if loads = 0 then 0. else float_of_int warm.hits /. float_of_int loads);
  seti "cache.corrupt_rejected" (cold.corrupt_rejected + warm.corrupt_rejected);
  seti "cache.retried" (cold.retried + warm.retried)

(* In a traced run, run [f] with a Debug memory sink (plus the usual
   warning sink) and the benchmark's spans on; returns [f]'s value and
   the Diag records (none in an untraced run). *)
let traced ctx f =
  if not ctx.trace then (f (), [])
  else begin
    let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
    Span.on := true;
    let v =
      Fun.protect
        ~finally:(fun () -> Span.on := false)
        (fun () -> Diag.with_sinks [ sink; Diag.stderr_sink ~min_level:Diag.Warn ] f)
    in
    (v, drain ())
  end

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  set "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  seti "gc.major_collections" (s1.Gc.major_collections - s0.Gc.major_collections);
  v

let int_field name (ev : Diag.ev) =
  match List.assoc_opt name ev.Diag.ev_fields with Some (Diag.Int i) -> Some i | _ -> None

let str_field name (ev : Diag.ev) =
  match List.assoc_opt name ev.Diag.ev_fields with Some (Diag.String s) -> Some s | _ -> None

(* LP counts of a cold pass from the program's Debug [lp.solved]
   records. *)
let lp_metrics events =
  let solved = List.filter (fun (ev : Diag.ev) -> ev.Diag.ev_name = "lp.solved") events in
  let ints name = List.filter_map (int_field name) solved in
  let pivots = match ints "pivots_cum" with [] -> 0 | p :: _ as l -> List.fold_left max p l - p in
  exact "lp.solves" (List.length solved);
  exact "lp.pivots" pivots;
  exact "lp.max_entry_bits" (List.fold_left max 0 (ints "maxbits"));
  exact "lp.max_rows" (List.fold_left max 0 (ints "rows"))

(* Entries and seconds of every oracle shard of a cold pass, from
   [shard.done] records.  A shard's seconds run from the previous shard's record, or
   from the begin of the enclosing oracle stage span. *)
let shard_metrics events =
  let last = ref 0. and shards = ref [] in
  List.iter
    (fun (ev : Diag.ev) ->
      match ev.Diag.ev_name with
      | "stage.begin" when str_field "stage" ev = Some "oracle" -> last := ev.ev_ts
      | "shard.done" ->
          let func =
            match str_field "key" ev with
            | Some k -> List.hd (String.split_on_char '-' k)
            | None -> "?"
          in
          let int name = Option.value ~default:0 (int_field name ev) in
          shards :=
            (func, int "index", int "count", int "entries", ev.ev_ts -. !last,
             Option.value ~default:"?" (str_field "status" ev))
            :: !shards;
          last := ev.ev_ts
      | _ -> ())
    events;
  let shards = List.rev !shards in
  let funcs = List.sort_uniq compare (List.map (fun (f, _, _, _, _, _) -> f) shards) in
  let worst = ref 0. in
  List.iter
    (fun f ->
      let mine = List.filter (fun (g, _, _, _, _, _) -> g = f) shards in
      List.iter
        (fun (_, k, n, entries, secs, status) ->
          say "shard %-6s %d/%d %-8s %5d entries %8.4f s" f k n status entries secs)
        mine;
      let es = List.map (fun (_, _, _, e, _, _) -> e) mine in
      let mean = float_of_int (List.fold_left ( + ) 0 es) /. float_of_int (List.length es) in
      let mx = List.fold_left max 0 es in
      let imb = if mean > 0. then float_of_int mx /. mean else 0. in
      say "shard %-6s imbalance max/mean = %d / %.2f = %.3f" f mx mean imb;
      worst := Float.max !worst imb)
    funcs;
  seti "pipeline.shard_entries_max"
    (List.fold_left (fun acc (_, _, _, e, _, _) -> max acc e) 0 shards);
  set "pipeline.shard_imbalance" !worst

(* Self time of every span name over the traced run; the pipeline stage
   metrics count only the stage spans inside the cold pass [cold]. *)
let span_report ctx ~cold events =
  let nodes = Span.forest events in
  let table title rows =
    let total = List.fold_left (fun acc (_, s) -> acc +. s.Span.self) 0. rows in
    say "%s (%.3f s of self time):" title total;
    List.iter
      (fun (name, s) ->
        say "  %-32s %6d  total %9.4f s  self %9.4f s  %5.1f%%" name s.Span.count s.total
          s.self (if total > 0. then 100. *. s.self /. total else 0.))
      rows
  in
  table (Printf.sprintf "self time per span, whole traced run (%d spans)" (List.length nodes))
    (Span.self_times nodes);
  let cold_rows = Span.self_times (Span.under cold nodes) in
  table ("self time per span inside " ^ cold) cold_rows;
  seti "trace.spans" (List.length nodes);
  List.iter
    (fun st ->
      set
        (Printf.sprintf "pipeline.%s_s" st)
        (match List.assoc_opt ("stage." ^ st) cold_rows with Some s -> s.Span.self | None -> 0.))
    [ "oracle"; "intervals"; "constraints"; "poly"; "verdict" ];
  if get "oracle.entries" > 0. then
    set "oracle.us_per_entry" (1e6 *. get "pipeline.oracle_s" /. get "oracle.entries");
  Span.write (Filename.concat ctx.work "spans.jsonl") nodes

let gen_counters (gs : Genlibm.t list) =
  let sum f = List.fold_left (fun acc g -> acc + f g) 0 gs in
  let arr_sum = Array.fold_left ( + ) 0 in
  exact "rlibm.rounds" (sum (fun g -> arr_sum g.Rlibm.Generate.rounds));
  exact "gen_specials" (sum Rlibm.Generate.n_specials);
  exact "gen_degree_sum" (sum (fun g -> arr_sum g.Rlibm.Generate.degrees));
  List.iter
    (fun g -> say "table1 %s" (Format.asprintf "%a" Genlibm.pp_table1_row (Genlibm.table1_row g)))
    gs

(* One Lp.solve_interval_system per piece, on the piece's merged points
   at its final degree.  Schemes of one function share their merged
   points, so a (function, piece, degree) is solved once. *)
let lp_solve_s (pairs : (Rlibm.Constraints.build_result * Genlibm.t) list) =
  let total = ref 0. and solved = Hashtbl.create 4 in
  let solve (g : Genlibm.t) k pts =
    let func = g.Rlibm.Generate.family.Rlibm.Reduction.func
    and degree = g.Rlibm.Generate.degrees.(k) in
    if not (Hashtbl.mem solved (func, k, degree)) then begin
      Hashtbl.add solved (func, k, degree) ();
      let lp_points =
        Array.map
          (fun (p : Rlibm.Constraints.point) ->
            { Lp.x = Rat.of_float p.r; lo = Rat.of_float p.lo; hi = Rat.of_float p.hi })
          pts
      in
      let r, dt =
        timed (fun () ->
            Lp.solve_interval_system ~mono_bits:64
              ~powers:(Array.init (degree + 1) Fun.id)
              lp_points)
      in
      say "lp.solve_interval_system %s piece %d degree %d: %d points, %s, %.4f s"
        (Oracle.name func) k degree (Array.length pts)
        (match r with Lp.Sat _ -> "sat" | Lp.Unsat -> "unsat")
        dt;
      total := !total +. dt
    end
  in
  List.iter
    (fun ((built : Rlibm.Constraints.build_result), g) ->
      Array.iteri (solve g) built.Rlibm.Constraints.points)
    pairs;
  set "lp.solve_s" !total

(* The closed warm loop shared by the generating workloads: one warm
   call measured alone for the cache counters, then the loop.  A warm
   request fans nothing out, so, as in a process that only re-resolves
   from a filled store, no worker pool is running. *)
let warm_loop ctx ~cold_stats warm =
  Parallel.shutdown ();
  Cache.reset_stats ();
  warm ();
  cache_metrics ~cold:cold_stats ~warm:(Cache.stats ());
  let times = loop ~seconds:ctx.seconds ~min_iters:5 warm in
  say "gen_warm_ms median %.3f ms, p90 %.3f ms (%d samples)" (1e3 *. median times)
    (1e3 *. percentile 0.9 times) (Array.length times);
  set "gen_warm_ms" (1e3 *. median times);
  times

(* ---------- workload: gen-exp2 ---------- *)

(* What identifies a generated function and its verdict, for comparing
   a warm re-resolution with the cold pass. *)
let fingerprint (g, (rep : Genlibm.verify_report)) =
  ( Genlibm.table1_row g,
    Array.map (fun c -> c.Polyeval.data) g.Rlibm.Generate.pieces,
    g.Rlibm.Generate.spec_keys,
    rep )

let verdict_ok = function
  | Ok (_, (rep : Genlibm.verify_report)) -> rep.Genlibm.wrong34 = 0 && rep.wrong_narrow = 0
  | Error _ -> false

let gen_exp2 ctx =
  let func = Oracle.Exp2 in
  let cfg = Rlibm.Config.mini_for func in
  let order = shuffle (Random.State.make [| ctx.seed |]) [ Polyeval.Horner; Polyeval.EstrinFma ] in
  say "gen-exp2: exp2 under %s, mini preset, -j 1"
    (String.concat ", " (List.map Polyeval.scheme_name order));
  let verified scheme =
    Span.record "pipeline.verified" (fun () -> Pipeline.verified ~cfg ~scheme func)
  in
  (* The stages in order; the two schemes share one oracle stage. *)
  let cold () =
    Span.record "gen.cold" (fun () ->
        match Span.record "pipeline.oracle_stage" (fun () -> Pipeline.oracle_stage ~cfg func) with
        | Error e -> (None, List.map (fun s -> (s, Error e)) order)
        | Ok table ->
            (* Verification later adds the shortcut inputs to the same
               table: count what the oracle stage produced. *)
            let entries = Hashtbl.length table in
            ignore
              (Span.record "pipeline.intervals_stage" (fun () -> Pipeline.intervals_stage ~cfg func)
                : Rlibm.Constraints.rounding_interval array);
            let built =
              Span.record "pipeline.constraints_stage" (fun () ->
                  Pipeline.constraints_stage ~cfg func)
            in
            let gen scheme =
              match
                Span.record "pipeline.generate" (fun () -> Pipeline.generate ~cfg ~scheme func)
              with
              | Error e -> Error e
              | Ok _ -> verified scheme
            in
            (Some (built, entries), List.map (fun s -> (s, gen s)) order))
  in
  (* One domain: see serve-mix's cold generation. *)
  let setup_s =
    if ctx.trace then (gen_setup ctx ~jobs:1 [ cfg ] (); 0.)
    else timed_gen_setup ctx ~jobs:1 [ cfg ]
  in
  let measure () =
    let cpu0 = Unix.times () in
    let (built, results), cold_s = timed cold in
    let cpu1 = Unix.times () in
    (built, results, cold_s, Cache.stats (), cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime)
  in
  let (built, results, cold_s, cold_stats, cpu_s), events =
    traced ctx (fun () -> gc_delta measure)
  in
  say "gen_cold_s %.3f s (cpu %.3f s)" cold_s cpu_s;
  summarize "gen_cold_s" cold_s;
  (* Each (func, scheme) generation is one operation: a typed error, a
     wrong verdict or an output that differs from lib/oracle fails it. *)
  Parallel.set_jobs jobs;
  let ref_ = reference func cfg in
  List.iter
    (fun (scheme, r) ->
      op (verdict_ok r && match r with Ok (g, _) -> outputs_ok ref_ g | Error _ -> false);
      say "cold %s: %s" (Polyeval.scheme_name scheme)
        (match r with
        | Ok (_, rep) -> Format.asprintf "%a" Genlibm.pp_verify_report rep
        | Error e -> "FAILED " ^ Diag.Error.to_string e))
    results;
  let gs = List.filter_map (fun (_, r) -> Result.to_option (Result.map fst r)) results in
  let reps = List.filter_map (fun (_, r) -> Result.to_option (Result.map snd r)) results in
  (match built with
  | Some ((b : Rlibm.Constraints.build_result), entries) ->
      exact "oracle.entries" entries;
      exact "rlibm.constraint_points" (Array.fold_left (fun acc p -> acc + Array.length p) 0 b.points)
  | None -> ());
  gen_counters gs;
  exact "genlibm.verify_checks"
    (List.fold_left (fun acc (r : Genlibm.verify_report) -> acc + r.checked + r.narrow_checks) 0 reps);
  (* Warm: re-resolve both schemes from the filled store with the
     in-process memos dropped; each must equal its cold result. *)
  let expect = List.map (fun (s, r) -> (s, Result.map fingerprint r)) results in
  let warm () =
    Rlibm.Constraints.clear_memory_cache ();
    Span.record "gen.warm" (fun () ->
        List.iter
          (fun s ->
            let r = verified s in
            op (verdict_ok r && List.assoc_opt s expect = Some (Result.map fingerprint r)))
          order)
  in
  let warm_times, warm_events =
    traced ctx (fun () -> warm_loop ctx ~cold_stats warm)
  in
  if ctx.trace then begin
    lp_metrics events;
    shard_metrics events;
    say "parallel fan-outs during the warm loop: %d"
      (List.length
         (List.filter (fun (ev : Diag.ev) -> ev.Diag.ev_name = "parallel.fan-out") warm_events));
    let events = events @ warm_events in
    span_report ctx ~cold:"gen.cold" events;
    match built with Some (b, _) -> lp_solve_s (List.map (fun g -> (b, g)) gs) | None -> ()
  end
  else begin
    set "setup_s" setup_s;
    set "gen_cold_s" cold_s;
    set "latency_ms" (1e3 *. median warm_times)
  end

(* ---------- workload: prefill ---------- *)

let prefill ctx =
  let funcs = shuffle (Random.State.make [| ctx.seed |]) Oracle.all in
  let pairs = List.map (fun f -> (f, Rlibm.Config.mini_for f)) funcs in
  say "prefill: warm --through constraints --shards 4 of %s, -j %d"
    (String.concat ", " (List.map Oracle.name funcs)) jobs;
  let call () =
    Span.record "pipeline.warm" (fun () -> Pipeline.warm ~through:Pipeline.Constraints ~shards:4 pairs)
  in
  let setup_s =
    if ctx.trace then (gen_setup ctx ~jobs (List.map snd pairs) (); 0.)
    else timed_gen_setup ctx ~jobs (List.map snd pairs)
  in
  let measure () =
    let r, cold_s = timed (fun () -> Span.record "prefill.cold" call) in
    (r, cold_s, Cache.stats ())
  in
  let (r, cold_s, cold_stats), events =
    traced ctx (fun () -> gc_delta measure)
  in
  say "gen_cold_s %.3f s" cold_s;
  summarize "gen_cold_s" cold_s;
  (* Every function is one operation: it fails when the call fails, when
     it is reported in wm_failed or wm_store_failed, when its entry count
     differs from the cold pass's, or (cold pass) when an entry of its
     oracle table differs from lib/oracle's. *)
  let table_ok f =
    let cfg = List.assoc f pairs in
    let ref_ = reference f cfg in
    let table =
      Rlibm.Constraints.oracle_table ~func:f ~tin:cfg.Rlibm.Config.tin ~tout:(Rlibm.Config.tout cfg)
    in
    let wrong = Hashtbl.fold (fun x y n -> if ref_.(Int64.to_int x) = Rto y then n else n + 1) table 0 in
    if wrong > 0 then say "%s: %d oracle entries differ from the reference" (Oracle.name f) wrong;
    wrong = 0
  in
  let expect = match r with Ok w -> w.Pipeline.wm_entries | Error _ -> [] in
  let check ~cold r =
    List.iter
      (fun f ->
        op
          (match r with
          | Error _ -> false
          | Ok (w : Pipeline.warm_report) ->
              (not (List.exists (fun (g, _, _) -> g = f) w.wm_failed))
              && (not (List.exists (fun (g, _) -> g = f) w.wm_store_failed))
              && List.assoc_opt f expect = List.assoc_opt f w.wm_entries
              && ((not cold) || table_ok f)))
      funcs
  in
  check ~cold:true r;
  (match r with
  | Error e -> say "cold: FAILED %s" (Diag.Error.to_string e)
  | Ok w -> List.iter (fun (f, n) -> say "cold %s: %d oracle entries" (Oracle.name f) n) w.wm_entries);
  exact "oracle.entries" (List.fold_left (fun acc (_, n) -> acc + n) 0 expect);
  let warm () =
    Rlibm.Constraints.clear_memory_cache ();
    Span.record "prefill.warm" (fun () -> check ~cold:false (call ()))
  in
  let warm_times, warm_events =
    traced ctx (fun () -> warm_loop ctx ~cold_stats warm)
  in
  (* Merged constraint points, read back from the filled store. *)
  exact "rlibm.constraint_points"
    (List.fold_left
       (fun acc (f, cfg) ->
         Array.fold_left
           (fun acc p -> acc + Array.length p)
           acc (Pipeline.constraints_stage ~cfg f).Rlibm.Constraints.points)
       0 pairs);
  if ctx.trace then begin
    lp_metrics events;
    shard_metrics events;
    say "parallel fan-outs during the warm loop: %d"
      (List.length
         (List.filter (fun (ev : Diag.ev) -> ev.Diag.ev_name = "parallel.fan-out") warm_events));
    let events = events @ warm_events in
    span_report ctx ~cold:"prefill.cold" events
  end
  else begin
    set "setup_s" setup_s;
    set "gen_cold_s" cold_s;
    set "latency_ms" (1e3 *. median warm_times)
  end

(* ---------- workload: serve-mix ---------- *)

let batch_n = 1 lsl 16
let pool_size = 16

(* Per entry, the first result seen for each pattern and whether it was
   correct: every later result is compared bit for bit, and a differing
   one is checked against the reference on its own. *)
type checker = {
  c_bits : int64 array;
  c_ok : bool array;
  c_ref : expect array;
  c_tout : Softfp.fmt;
}

let unseen = 0x7ff8_dead_beef_0001L

let checker ref_ tout =
  let p = Array.length ref_ in
  { c_bits = Array.make p unseen; c_ok = Array.make p false; c_ref = ref_; c_tout = tout }

let check_eval c p v =
  let bits = Int64.bits_of_float v in
  if Int64.equal c.c_bits.(p) bits then c.c_ok.(p)
  else if Int64.equal c.c_bits.(p) unseen then begin
    let ok = correct_result c.c_tout c.c_ref.(p) v in
    c.c_bits.(p) <- bits;
    c.c_ok.(p) <- ok;
    ok
  end
  else correct_result c.c_tout c.c_ref.(p) v

let check_batch c (src : Genlibm.src_buf) (dst : Genlibm.dst_buf) =
  let bad = ref 0 in
  for i = 0 to Bigarray.Array1.dim src - 1 do
    if
      not
        (check_eval c
           (Int64.to_int (Bigarray.Array1.unsafe_get src i))
           (Bigarray.Array1.unsafe_get dst i))
    then incr bad
  done;
  !bad

type entry = { e_spec : Oracle.func * Polyeval.scheme; e_snap : Serve.t; e_impl : Genlibm.t }

(* Where an input goes in the kernel: the special table, the analytic
   shortcut (non-finite inputs included), or the polynomial. *)
let classify (g : Genlibm.t) tin p =
  let x = Int64.of_int p in
  if not (Softfp.is_finite tin x) then `Shortcut
  else if Array.mem p g.Rlibm.Generate.spec_keys then `Special
  else if g.Rlibm.Generate.family.Rlibm.Reduction.shortcut (Softfp.to_float tin x) <> None then
    `Shortcut
  else `Poly

let serve_mix ctx =
  let specs = List.map (fun (f, s) -> (f, s, Rlibm.Config.mini_for f)) served in
  let snap_a = [ List.nth specs 0; List.nth specs 1 ] and snap_b = [ List.nth specs 2 ] in
  let cfg = Rlibm.Config.mini_for Oracle.Exp2 in
  let tin = cfg.Rlibm.Config.tin and tout = Rlibm.Config.tout cfg in
  let n_patterns = 1 lsl Softfp.width tin in
  let names l = String.concat "; " (List.map (fun (f, s, _) -> tag (f, s)) l) in
  say "serve-mix: snapshots [%s] [%s], batches of %d uniform %d-bit patterns, -j %d" (names snap_a)
    (names snap_b) batch_n (Softfp.width tin) jobs;
  let build specs =
    match Span.record "serve.build" (fun () -> Serve.build specs) with
    | Ok t -> t
    | Error e -> failwith ("Serve.build: " ^ Diag.Error.to_string e)
  in
  (* Set-up, part 1: both snapshots generated cold into an empty store,
     on one domain.  The generation is LP-bound and runs on the driver
     domain; an idle pool domain, which must still join every minor
     collection, made it slower and its time several times as spread
     (measured on a 2-vCPU VM).  Serving runs at -j 2. *)
  let cold_build () =
    fresh_store ctx;
    Parallel.set_jobs 1;
    let (a, b), cold_s =
      timed (fun () -> Span.record "serve.cold" (fun () -> (build snap_a, build snap_b)))
    in
    Parallel.set_jobs jobs;
    let entries =
      List.map
        (fun (f, s) ->
          let snap = if List.mem (f, s, Rlibm.Config.mini_for f) snap_a then a else b in
          match Serve.find snap f with
          | Some e -> { e_spec = (f, s); e_snap = snap; e_impl = e.Serve.e_impl }
          | None -> failwith "entry missing from snapshot")
        served
    in
    (Array.of_list entries, cold_s, Cache.stats ())
  in
  (* Set-up, part 2: the oracle reference and the native driver. *)
  let native_dir = Filename.concat ctx.work "native" in
  let finish_setup entries =
    let refs = List.map (fun f -> (f, reference f (Rlibm.Config.mini_for f))) [ Oracle.Exp2; Oracle.Log2 ] in
    Unix.mkdir native_dir 0o755;
    let exe =
      Native.build ~dir:native_dir
        ~driver_src:(Filename.concat "perfbench" "native_driver.c")
        (Array.to_list (Array.map (fun e -> e.e_impl) entries))
    in
    (refs, exe)
  in
  let ((entries, cold_s, cold_stats), (refs, exe)), setup_s, cold_events =
    if ctx.trace then
      let c, events = traced ctx (fun () -> gc_delta cold_build) in
      let (e, _, _) = c in
      ((c, finish_setup e), 0., events)
    else
      let startup = startup_s () in
      let v, dt =
        timed (fun () ->
            let ((e, _, _) as c) = cold_build () in
            (c, finish_setup e))
      in
      (v, startup +. dt, [])
  in
  say "setup %.3f s, of which cold snapshot generation %.3f s" setup_s cold_s;
  summarize "gen_cold_s" cold_s;
  let n_entries = Array.length entries in
  let checkers = Array.map (fun e -> checker (List.assoc (fst e.e_spec) refs) tout) entries in
  gen_counters (Array.to_list (Array.map (fun e -> e.e_impl) entries));
  (* Oracle entries and merged constraint points, once per function. *)
  let funcs = List.sort_uniq compare (List.map fst served) in
  let first_impl f = (Array.to_list entries |> List.find (fun e -> fst e.e_spec = f)).e_impl in
  exact "oracle.entries"
    (List.fold_left
       (fun acc f ->
         acc + Hashtbl.length (Rlibm.Constraints.oracle_table ~func:f ~tin ~tout))
       0 funcs);
  exact "rlibm.constraint_points"
    (List.fold_left
       (fun acc f -> Array.fold_left ( + ) acc (first_impl f).Rlibm.Generate.n_constraints)
       0 funcs);
  (* The seeded input pool. *)
  let rng = Random.State.make [| ctx.seed |] in
  let pool =
    Array.init pool_size (fun _ ->
        let src = Genlibm.create_src batch_n in
        for i = 0 to batch_n - 1 do
          Bigarray.Array1.set src i (Int64.of_int (Random.State.int rng n_patterns))
        done;
        src)
  in
  let dst = Genlibm.create_dst batch_n in
  (* Snapshot load: Serve.build against the filled store. *)
  let load () =
    ignore (build snap_a : Serve.t);
    ignore (build snap_b : Serve.t)
  in
  (* The serving loop: batch i runs entry i mod 3 on pool batch
     i mod 16; only the Serve.eval_batch_into call is timed. *)
  let serve_loop () =
    let times = ref [] and per_entry = Array.make n_entries [] and i = ref 0 and words = ref 0. in
    let stop = now () +. ctx.seconds in
    while !i < 3 * n_entries || now () < stop do
      let k = !i mod n_entries in
      let e = entries.(k) and src = pool.(!i mod pool_size) in
      let w0 = Gc.minor_words () in
      let t0 = now () in
      Span.record "serve.eval_batch_into" (fun () ->
          Serve.eval_batch_into e.e_snap (fst e.e_spec) ~src ~dst);
      let dt = now () -. t0 in
      words := !words +. (Gc.minor_words () -. w0);
      let ns = 1e9 *. dt /. float_of_int batch_n in
      times := ns :: !times;
      per_entry.(k) <- ns :: per_entry.(k);
      attempted := !attempted + batch_n;
      failed := !failed + check_batch checkers.(k) src dst;
      incr i
    done;
    let times = Array.of_list !times in
    say "serve_ns_per_eval median %.3f ns, p99 %.3f ns (%d batches of %d)" (median times)
      (percentile 0.99 times) (Array.length times) batch_n;
    set "serve_ns_per_eval" (median times);
    set "serve_ns_per_eval_p99" (percentile 0.99 times);
    seti "serve.batches" (Array.length times);
    set "serve.minor_words_per_eval" (!words /. float_of_int (!i * batch_n));
    Array.iteri
      (fun k e -> set ("serve.ns_per_eval." ^ tag e.e_spec) (median (Array.of_list per_entry.(k))))
      entries;
    summarize "serve_ns_per_eval" (median times);
    times
  in
  let measure () =
    Cache.reset_stats ();
    load ();
    cache_metrics ~cold:cold_stats ~warm:(Cache.stats ());
    let load_times = loop ~seconds:(Float.min 1. (ctx.seconds /. 4.)) ~min_iters:10 load in
    say "snapshot_load_ms median %.3f ms (%d samples)" (1e3 *. median load_times)
      (Array.length load_times);
    set "snapshot_load_ms" (1e3 *. median load_times);
    serve_loop ()
  in
  let times, serve_events = traced ctx measure in
  (* The native driver over the same schedule and the same batches. *)
  let iters = Array.length times in
  let r =
    Native.run_batches ~dir:native_dir exe ~entries:n_entries
      ~decode:(Array.init n_patterns (fun p -> Softfp.to_float tin (Int64.of_int p)))
      ~pool ~iters
  in
  let wrong = ref 0 in
  Array.iteri
    (fun k c ->
      Array.iteri
        (fun p seen ->
          if seen > 0 && not (correct_result c.c_tout c.c_ref.(p) r.Native.first.(k).(p)) then
            wrong := !wrong + seen)
        r.Native.seen.(k))
    checkers;
  attempted := !attempted + (iters * batch_n);
  failed := !failed + !wrong + r.mismatches;
  let ns = Array.map (fun t -> float_of_int t /. float_of_int batch_n) r.ns in
  say "native_ns_per_eval median %.3f ns, p99 %.3f ns (%d batches of %d); %d wrong results, %d \
       differing from the first result of the same input"
    (median ns) (percentile 0.99 ns) iters batch_n !wrong r.mismatches;
  set "native_ns_per_eval" (median ns);
  set "native_ns_per_eval_p99" (percentile 0.99 ns);
  seti "native.batches" iters;
  Array.iteri
    (fun k e ->
      set ("native.ns_per_eval." ^ tag e.e_spec)
        (median (Array.of_list (List.filteri (fun i _ -> i mod n_entries = k) (Array.to_list ns)))))
    entries;
  (* Table 2 cell, OCaml kernel and native side by side. *)
  Array.iter
    (fun e ->
      let t = tag e.e_spec in
      say "table2 %-16s ocaml %8.3f ns  native %8.3f ns" t (get ("serve.ns_per_eval." ^ t))
        (get ("native.ns_per_eval." ^ t)))
    entries;
  let horner = get "native.ns_per_eval.log2.horner"
  and estrin = get "native.ns_per_eval.log2.estrin-fma" in
  say "native log2 speedup of estrin-fma over horner: %.3f ns / %.3f ns = %.3f (base: horner)"
    horner estrin (horner /. estrin);
  set "native.speedup.log2.estrin-fma_vs_horner" (horner /. estrin);
  let fma = Native.fma_insns ~dir:native_dir exe n_entries in
  Array.iteri (fun k e -> exact ("codegen.fma_insns." ^ tag e.e_spec) fma.(k)) entries;
  (* The input property: where the pool's inputs go, per entry. *)
  let cls = Array.map (fun e -> Array.init n_patterns (classify e.e_impl tin)) entries in
  Array.iteri
    (fun k e ->
      let tally = Hashtbl.create 3 in
      Array.iter
        (fun src ->
          for i = 0 to batch_n - 1 do
            let c = cls.(k).(Int64.to_int (Bigarray.Array1.get src i)) in
            Hashtbl.replace tally c (1 + Option.value ~default:0 (Hashtbl.find_opt tally c))
          done)
        pool;
      let share c =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally c))
        /. float_of_int (pool_size * batch_n)
      in
      let t = tag e.e_spec in
      say "inputs %-16s shortcut %.4f special %.4f poly %.4f" t (share `Shortcut) (share `Special)
        (share `Poly);
      set ("serve.shortcut_share." ^ t) (share `Shortcut);
      set ("serve.special_share." ^ t) (share `Special);
      set ("serve.poly_share." ^ t) (share `Poly))
    entries;
  if ctx.trace then begin
    lp_metrics cold_events;
    shard_metrics cold_events;
    span_report ctx ~cold:"serve.cold" (cold_events @ serve_events);
    (* Kernel passes on the driver domain over the same round-robin,
       in ns per batch element. *)
    let kernel = ref [] and red = ref [] and poly = ref [] in
    let scratch = Rlibm.Reduction.scratch () in
    let per_elem dt = 1e9 *. dt /. float_of_int batch_n in
    for round = 0 to (3 * pool_size) - 1 do
      let k = round mod n_entries in
      let g = entries.(k).e_impl and src = pool.(round mod pool_size) in
      let (), dt = timed (fun () -> Genlibm.eval_bits_into g ~src ~dst ~lo:0 ~hi:batch_n) in
      kernel := per_elem dt :: !kernel;
      let xs = Float.Array.make batch_n 0. and nx = ref 0 in
      for i = 0 to batch_n - 1 do
        let p = Int64.to_int (Bigarray.Array1.get src i) in
        if cls.(k).(p) = `Poly then begin
          Float.Array.set xs !nx (Softfp.to_float tin (Int64.of_int p));
          incr nx
        end
      done;
      let fam = g.Rlibm.Generate.family in
      let (), dt =
        timed (fun () ->
            for i = 0 to !nx - 1 do
              scratch.Rlibm.Reduction.sf.sx <- Float.Array.unsafe_get xs i;
              fam.Rlibm.Reduction.reduce_into scratch
            done)
      in
      red := per_elem dt :: !red;
      let pieces = g.Rlibm.Generate.pieces in
      let rs = Array.map (fun _ -> Float.Array.make !nx 0.) pieces
      and fill = Array.make (Array.length pieces) 0 in
      for i = 0 to !nx - 1 do
        scratch.Rlibm.Reduction.sf.sx <- Float.Array.get xs i;
        fam.Rlibm.Reduction.reduce_into scratch;
        let pc = scratch.spiece in
        Float.Array.set rs.(pc) fill.(pc) scratch.sf.sr;
        fill.(pc) <- fill.(pc) + 1
      done;
      let out = Float.Array.make !nx 0. in
      let (), dt =
        timed (fun () ->
            Array.iteri
              (fun pc (c : Polyeval.compiled) ->
                Polyeval.eval_into c.scheme c.data ~src:rs.(pc) ~dst:out ~lo:0 ~hi:fill.(pc))
              pieces)
      in
      poly := per_elem dt :: !poly
    done;
    let med l = median (Array.of_list l) in
    set "genlibm.kernel_ns_per_eval" (med !kernel);
    set "reduction.reduce_into_ns_per_eval" (med !red);
    set "polyeval.eval_into_ns_per_eval" (med !poly);
    set "serve.parallel_efficiency" (med !kernel /. (get "serve_ns_per_eval" *. float_of_int jobs));
    say
      "kernel passes on the driver domain, ns per batch element: eval_bits_into %.3f, \
       reduce_into %.3f, eval_into %.3f; parallel efficiency at -j %d: %.3f"
      (med !kernel) (med !red) (med !poly) jobs (get "serve.parallel_efficiency");
    lp_solve_s
      (List.map
         (fun e ->
           let f = fst e.e_spec in
           (Pipeline.constraints_stage ~cfg:(Rlibm.Config.mini_for f) f, e.e_impl))
         (Array.to_list entries))
  end
  else begin
    set "setup_s" setup_s;
    set "gen_cold_s" cold_s;
    set "latency_ms" (1e-6 *. float_of_int batch_n *. median times)
  end

(* ---------- self-check, traced-run reference, main ---------- *)

(* Compare this run's counters with the previous run of the same
   executable, workload and mode, then record this run's. *)
let self_check ~state ~workload ~trace =
  let fp = Digest.to_hex (Digest.file Sys.executable_name) in
  let file =
    Filename.concat state (Printf.sprintf "counters-%s-trace%d.txt" workload (Bool.to_int trace))
  in
  let current = List.sort compare !counters in
  let previous =
    match In_channel.with_open_text file In_channel.input_all with
    | text -> (
        match String.split_on_char '\n' text with
        | f :: rest when f = fp ->
            Some
              (List.filter_map
                 (fun l ->
                   match String.split_on_char ' ' l with
                   | [ k; v ] -> Some (k, int_of_string v)
                   | _ -> None)
                 rest)
        | _ -> None)
    | exception Sys_error _ -> None
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (fp ^ "\n");
      List.iter (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v) current);
  match previous with
  | None ->
      say "self-check: no earlier run of this executable to compare counters with";
      true
  | Some prev ->
      let diffs =
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k prev with
            | Some w when w = v -> None
            | Some w -> Some (Printf.sprintf "%s %d -> %d" k w v)
            | None -> Some (k ^ " is new"))
          current
      in
      List.iter (fun d -> say "self-check: counter differs: %s" d) diffs;
      if diffs = [] then say "self-check: all %d counters equal the previous run's" (List.length current);
      diffs = []

(* The untraced reference of a traced run: this executable run again
   with --trace 0 in a child process, so that both start from a fresh
   process.  Returns its summary figures; its operations count as this
   run's. *)
let untraced_child ~work ~workload ~seed ~seconds =
  let out = Filename.concat work "untraced.out" in
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process Sys.executable_name
          [|
            Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "0";
          |]
          Unix.stdin fd Unix.stderr)
  in
  wait_ok "untraced reference run" pid;
  let lines = String.split_on_char '\n' (In_channel.with_open_text out In_channel.input_all) in
  let figures =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "summary"; k; v ] -> Some (k, float_of_string v)
        | _ -> None)
      lines
  in
  let result = List.find (fun l -> String.length l > 0 && l.[0] = '{') (List.rev lines) in
  Scanf.sscanf result "{\"correct\": %B, \"attempted\": %d, \"failed\": %d" (fun ok a f ->
      attempted := !attempted + a;
      failed := !failed + f;
      say "untraced child: correct %b, %d attempted, %d failed" ok a f;
      (figures, ok))

let usage () =
  prerr_endline
    "usage: main.exe --workload gen-exp2|prefill|serve-mix --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match !workload with
    | "gen-exp2" -> gen_exp2
    | "prefill" -> prefill
    | "serve-mix" -> serve_mix
    | _ -> usage ()
  in
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0. ->
      let state = Filename.concat ".bench_build" "perfbench" in
      let work = Filename.concat state (Printf.sprintf "run-%s-%d" !workload (Unix.getpid ())) in
      List.iter (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755) [ ".bench_build"; state ];
      Unix.mkdir work 0o755;
      Parallel.set_jobs jobs;
      let ctx = { seed; seconds; trace; work } in
      let outcome =
        try
          let child =
            if trace then
              (* The generating workloads only need the child's cold pass. *)
              let seconds = if !workload = "serve-mix" then seconds else 1. in
              Some (untraced_child ~work ~workload:!workload ~seed ~seconds)
            else None
          in
          run ctx;
          Ok child
        with e -> Error (Printexc.to_string e)
      in
      Parallel.shutdown ();
      let child =
        match outcome with
        | Ok c -> c
        | Error msg ->
            prerr_endline ("perfbench: " ^ msg);
            exit 1
      in
      let child_ok =
        match child with
        | None -> true
        | Some (figures, ok) ->
            List.iter
              (fun (name, metric) ->
                match (Hashtbl.find_opt summary name, List.assoc_opt name figures) with
                | Some t, Some u ->
                    say "tracing overhead on %s: %.6g traced - %.6g untraced = %+.6g" name t u
                      (t -. u);
                    set metric (t -. u)
                | _ -> ())
              [
                ("gen_cold_s", "trace.overhead_gen_cold_s");
                ("serve_ns_per_eval", "trace.overhead_serve_ns_per_eval");
              ];
            ok
      in
      if not trace then set "peak_rss_mb" (peak_rss_mb ());
      let counters_ok = self_check ~state ~workload:!workload ~trace in
      if trace then
        Sys.rename (Filename.concat work "spans.jsonl")
          (Filename.concat state (Printf.sprintf "spans-%s-seed%d.jsonl" !workload seed));
      rm_rf work;
      say "operations: %d attempted, %d failed" !attempted !failed;
      emit ~trace ~correct:(!failed = 0 && counters_ok && child_ok)
  | _ -> usage ()
