(* Benchmark and experiment harness: regenerates every table and data
   figure of the paper's evaluation section on the reduced-width universe.

     E1  Table 1   — properties of the generated polynomial approximations
     E2  Table 2 + Figure 6 — speedup of RLibm-Knuth / RLibm-Estrin /
                    RLibm-Estrin+FMA over RLibm's Horner baseline
     E3  §6.3      — post-process adaptation vs the integrated loop
     E4  §6.3      — correctness for all representations and rounding modes

   Usage (dune exec bench/main.exe -- --help lists every option):
     dune exec bench/main.exe                      (everything)
     dune exec bench/main.exe -- --table1          (just E1)
     dune exec bench/main.exe -- --table2          (just E2: timings and
                                                    the Figure 6 series)
     dune exec bench/main.exe -- --post-process    (just E3)
     dune exec bench/main.exe -- --correctness     (just E4)
     dune exec bench/main.exe -- --cost            (static cost model)
     dune exec bench/main.exe -- --quick           (2 functions only)
     dune exec bench/main.exe -- -j N              (N-way generation/verify
                                                    fan-out; -j 1 = the
                                                    exact sequential path)
     dune exec bench/main.exe -- --json PATH       (also write the E2
                                                    timings as JSON)
     dune exec bench/main.exe -- --gen-json PATH   (cold vs warm staged
                                                    generation per function
                                                    in a fresh store)
     dune exec bench/main.exe -- --lp-json PATH    (LP solve statistics of
                                                    the cold polynomial
                                                    stage per function x
                                                    scheme)

   The section flags combine; with none of them (and neither --gen-json
   nor --lp-json) every section runs.  --cache-dir, --cache-stats,
   --log-level and --trace are the shared terms of lib/cli, as on
   rlibm_gen.  Serving throughput is measured by rlibm_gen serve --bench
   and perfbench serve-mix, oracle sharding by perfbench prefill.

   Generation runs through the staged pipeline (lib/pipeline): the first
   run persists every stage — oracle table, rounding intervals, merged
   constraints, per-scheme polynomial, verdict — through the hardened
   Cache store (default ./.oracle-cache; RLIBM_CACHE_DIR relocates it,
   RLIBM_NO_DISK_CACHE=1 disables it); subsequent runs load the deepest
   stage directly and perform zero oracle evaluations and zero LP
   solves.  Corrupt or stale entries are quarantined and regenerated,
   never trusted — --cache-stats makes that visible. *)

open Bechamel
open Toolkit
open Cmdliner

(* ---------- shared generation ---------- *)

type entry = {
  func : Oracle.func;
  scheme : Polyeval.scheme;
  gen : (Rlibm.Generate.generated, Diag.Error.t) result;
}

let generate_grid funcs =
  List.concat_map
    (fun func ->
      let cfg = Rlibm.Config.mini_for func in
      List.map
        (fun scheme ->
          { func; scheme; gen = Pipeline.generate ~cfg ~scheme func })
        Polyeval.paper_schemes)
    funcs

(* ---------- E1: Table 1 ---------- *)

let print_table1 grid =
  print_endline "== E1: Table 1 — generated polynomial approximations ==";
  print_endline
    "(paper: Table 1; reduced-width universe, so absolute numbers differ —\n\
     the shape (low degrees, few pieces, handfuls of special inputs) is\n\
     the reproduction target)";
  Printf.printf "%-7s %-11s %7s %-10s %9s\n" "f" "scheme" "pieces" "degrees"
    "specials";
  List.iter
    (fun e ->
      match e.gen with
      | Error err ->
          Printf.printf "%-7s %-11s  FAILED: %s\n" (Oracle.name e.func)
            (Polyeval.scheme_name e.scheme)
            (Diag.Error.to_string err)
      | Ok g ->
          let row = Genlibm.table1_row g in
          Printf.printf "%-7s %-11s %7d %-10s %9d\n" (Oracle.name e.func)
            (Polyeval.scheme_name e.scheme) row.Genlibm.n_pieces
            (String.concat "," (List.map string_of_int row.Genlibm.degrees))
            row.Genlibm.n_specials)
    grid;
  print_newline ()

(* ---------- E2: Table 2 and Figure 6 ---------- *)

(* Timing methodology: every generated function is evaluated over the same
   sweep of valid polynomial-path inputs (the shared range reduction and
   output compensation are part of the measured path, as in the paper's
   rdtscp harness; the per-input special-table branch is excluded because
   our table is a hash lookup, not the artifact's two-instruction compare
   chain).  One Bechamel sample evaluates the whole sweep; the analyzer's
   OLS estimate divided by the sweep size gives ns/call. *)

let sweep_inputs (g : Rlibm.Generate.generated) =
  let tin = g.Rlibm.Generate.cfg.Rlibm.Config.tin in
  let acc = ref [] in
  Softfp.iter_finite tin (fun b ->
      let xf = Softfp.to_float tin b in
      if
        g.Rlibm.Generate.family.Rlibm.Reduction.shortcut xf = None
        && not (Hashtbl.mem g.Rlibm.Generate.specials b)
      then acc := xf :: !acc);
  Array.of_list !acc

let bench_tests grid =
  List.filter_map
    (fun e ->
      match e.gen with
      | Error _ -> None
      | Ok g ->
          let xs = sweep_inputs g in
          let name =
            Printf.sprintf "%s/%s" (Oracle.name e.func)
              (Polyeval.scheme_name e.scheme)
          in
          let run () =
            let acc = ref 0.0 in
            for i = 0 to Array.length xs - 1 do
              acc := !acc +. Genlibm.eval_float g (Array.unsafe_get xs i)
            done;
            !acc
          in
          Some ((e.func, e.scheme, Array.length xs), Test.make ~name (Staged.stage run)))
    grid

let run_bechamel tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~stabilize:true ()
  in
  let grouped =
    Test.make_grouped ~name:"polyeval" ~fmt:"%s %s" (List.map snd tests)
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

(* One timing measurement: median-estimate ns per call for a (func,
   scheme) cell, from Bechamel's OLS fit over the sweep. *)
type timing = { t_func : Oracle.func; t_scheme : Polyeval.scheme; t_ns : float }

let measure_grid grid =
  let tests = bench_tests grid in
  let results = run_bechamel tests in
  List.filter_map
    (fun ((func, scheme, sweep), _) ->
      let name =
        Printf.sprintf "polyeval %s/%s" (Oracle.name func)
          (Polyeval.scheme_name scheme)
      in
      match Hashtbl.find_opt results name with
      | Some ols -> (
          match Analyze.OLS.estimates ols with
          | Some (t :: _) ->
              Some { t_func = func; t_scheme = scheme; t_ns = t /. float_of_int sweep }
          | _ -> None)
      | None -> None)
    tests

let time_of timings func scheme =
  List.find_map
    (fun t -> if t.t_func = func && t.t_scheme = scheme then Some t.t_ns else None)
    timings

let speedup_pct th t = 100.0 *. ((th /. t) -. 1.0)

let print_table2 timings =
  print_endline
    "== E2: Table 2 / Figure 6 — speedup over RLibm (Horner baseline) ==";
  let funcs =
    List.sort_uniq compare (List.map (fun t -> t.t_func) timings)
  in
  let fast_schemes = [ Polyeval.Knuth; Polyeval.Estrin; Polyeval.EstrinFma ] in
  Printf.printf "%-8s %10s | %9s %9s %9s   (speedup vs horner)\n" "f"
    "horner ns" "knuth" "estrin" "estr+fma";
  let sums = Hashtbl.create 4 in
  List.iter
    (fun func ->
      match time_of timings func Polyeval.Horner with
      | None -> ()
      | Some th ->
          Printf.printf "%-8s %10.2f |" (Oracle.name func) th;
          List.iter
            (fun scheme ->
              match time_of timings func scheme with
              | None -> Printf.printf "%9s" "n/a"
              | Some t ->
                  let speedup = speedup_pct th t in
                  let s, n =
                    Option.value ~default:(0.0, 0) (Hashtbl.find_opt sums scheme)
                  in
                  Hashtbl.replace sums scheme (s +. speedup, n + 1);
                  Printf.printf "%8.1f%%" speedup)
            fast_schemes;
          print_newline ())
    funcs;
  Printf.printf "%-8s %10s |" "average" "";
  List.iter
    (fun scheme ->
      match Hashtbl.find_opt sums scheme with
      | Some (s, n) when n > 0 -> Printf.printf "%8.1f%%" (s /. float_of_int n)
      | _ -> Printf.printf "%9s" "n/a")
    fast_schemes;
  print_newline ();
  print_endline
    "(paper, x86 vfmadd testbed: knuth ~4%, estrin ~15%, estrin+fma ~24%;\n\
     our Float.fma is a libm call — see EXPERIMENTS.md for the discussion)";
  (* Figure 6 as a data series. *)
  print_endline "\n-- Figure 6 series (speedup % per function) --";
  List.iter
    (fun scheme ->
      Printf.printf "%-11s" (Polyeval.scheme_name scheme);
      List.iter
        (fun func ->
          match (time_of timings func Polyeval.Horner, time_of timings func scheme) with
          | Some th, Some t ->
              Printf.printf " %s=%.1f" (Oracle.name func) (speedup_pct th t)
          | _ -> Printf.printf " %s=n/a" (Oracle.name func))
        funcs;
      print_newline ())
    fast_schemes;
  print_newline ()

(* Machine-readable E2 results, for BENCH_*.json perf trajectory
   tracking across PRs (standard envelope: see bench_json.ml). *)
let write_json path ~jobs timings =
  Bench_json.write_rows path ~kind:"polyeval-ns" ~jobs
    ~input_bits:(Softfp.width Rlibm.Config.mini_tin) ~key:"results"
    ~what:"timing rows"
    (fun t ->
      let speedup =
        match time_of timings t.t_func Polyeval.Horner with
        | Some th when t.t_ns > 0.0 -> speedup_pct th t.t_ns
        | _ -> 0.0
      in
      Printf.sprintf
        "{\"func\": %S, \"scheme\": %S, \"median_ns\": %.4f, \
         \"speedup_vs_horner_pct\": %.2f}"
        (Oracle.name t.t_func)
        (Polyeval.scheme_name t.t_scheme)
        t.t_ns speedup)
    timings

(* ---------- static cost model (the mechanism behind Figure 6) ---------- *)

let print_cost_model () =
  print_endline
    "== Cost model — operation counts and dependence depth (§3-§4) ==";
  Printf.printf "%-11s %s\n" "scheme" "degree:  4             5             6";
  List.iter
    (fun scheme ->
      Printf.printf "%-11s         " (Polyeval.scheme_name scheme);
      List.iter
        (fun d ->
          let c = Expr.cost (Polyeval.scheme_expr scheme ~degree:d) in
          Printf.printf "%dm+%da+%df/d%-2d  "
            c.Expr.mults c.Expr.adds c.Expr.fmas c.Expr.depth)
        [ 4; 5; 6 ];
      print_newline ())
    Polyeval.all_schemes;
  print_endline
    "(m=mul, a=add, f=fma, d=critical-path depth under perfect ILP;\n\
     Horner's serial 2d chain vs Estrin's ~2·log2(d) is the Figure-6\n\
     mechanism, and Knuth trades multiplies for adds per §3)\n"

(* ---------- E3: post-process pitfall ---------- *)

let count_post_process_wrong (horner_g : Rlibm.Generate.generated) scheme
    inputs =
  let tin = horner_g.Rlibm.Generate.cfg.Rlibm.Config.tin in
  let tout = Rlibm.Config.tout horner_g.Rlibm.Generate.cfg in
  let adapted =
    Array.map
      (fun (p : Polyeval.compiled) -> Polyeval.compile scheme p.Polyeval.data)
      horner_g.Rlibm.Generate.pieces
  in
  if Array.exists (fun c -> c = None) adapted then None
  else begin
    let adapted = Array.map Option.get adapted in
    let wrong = ref 0 in
    Array.iter
      (fun x ->
        if
          Softfp.is_finite tin x
          && not (Hashtbl.mem horner_g.Rlibm.Generate.specials x)
        then begin
          let xf = Softfp.to_float tin x in
          match horner_g.Rlibm.Generate.family.Rlibm.Reduction.shortcut xf with
          | Some _ -> ()
          | None -> (
              let red =
                horner_g.Rlibm.Generate.family.Rlibm.Reduction.reduce xf
              in
              let v =
                red.Rlibm.Reduction.oc
                  (adapted.(red.Rlibm.Reduction.piece).Polyeval.eval
                     red.Rlibm.Reduction.r)
              in
              let y_impl = Genlibm.round_result tout Softfp.RTO v in
              (* The oracle table may be partial (a warm poly-stage hit
                 re-attaches whatever the store holds): recompute on a
                 miss, as Genlibm.verify does. *)
              let y_true =
                match Hashtbl.find_opt horner_g.Rlibm.Generate.oracle x with
                | Some y -> y
                | None ->
                    Oracle.correctly_round
                      horner_g.Rlibm.Generate.family.Rlibm.Reduction.func
                      (Softfp.to_rat tin x) ~fmt:tout ~mode:Softfp.RTO
              in
              if not (Int64.equal y_impl y_true) then incr wrong)
        end)
      inputs;
    Some !wrong
  end

let print_post_process grid =
  print_endline "== E3: §6.3 — post-process adaptation vs integrated loop ==";
  Printf.printf "%-7s %-11s %20s %20s\n" "f" "scheme" "post-proc #wrong"
    "integrated #specials";
  List.iter
    (fun e ->
      if e.scheme = Polyeval.Horner then
        match e.gen with
        | Error _ -> ()
        | Ok horner_g ->
            let inputs =
              Genlibm.inputs_exhaustive
                horner_g.Rlibm.Generate.cfg.Rlibm.Config.tin
            in
            List.iter
              (fun scheme ->
                let post = count_post_process_wrong horner_g scheme inputs in
                let integrated =
                  match
                    List.find_opt
                      (fun e2 -> e2.func = e.func && e2.scheme = scheme)
                      grid
                  with
                  | Some { gen = Ok g; _ } ->
                      string_of_int (Rlibm.Generate.n_specials g)
                  | _ -> "failed"
                in
                Printf.printf "%-7s %-11s %20s %20s\n" (Oracle.name e.func)
                  (Polyeval.scheme_name scheme)
                  (match post with None -> "n/a" | Some w -> string_of_int w)
                  integrated)
              [ Polyeval.Knuth; Polyeval.Estrin; Polyeval.EstrinFma ])
    grid;
  print_newline ()

(* ---------- E4: multi-representation correctness ---------- *)

let print_correctness grid =
  print_endline
    "== E4: correctness for all representations and rounding modes ==";
  List.iter
    (fun e ->
      (* The verdict stage: persisted like every other artifact, so a
         re-run of the harness loads it instead of re-verifying. *)
      let verdict =
        Result.bind e.gen (fun g ->
            Pipeline.verified ~cfg:g.Rlibm.Generate.cfg ~scheme:e.scheme e.func
            |> Result.map snd)
      in
      Printf.printf "%-7s %-11s %s\n%!" (Oracle.name e.func)
        (Polyeval.scheme_name e.scheme)
        (match verdict with
        | Error err -> "FAILED: " ^ Diag.Error.to_string err
        | Ok rep -> Format.asprintf "%a" Genlibm.pp_verify_report rep))
    grid;
  print_newline ()

(* ---------- staged-generation timings (cold vs warm store) ---------- *)

(* End-to-end pipeline wall time per function — generate + verify through
   lib/pipeline — measured twice against a fresh store directory: cold
   (every stage rebuilt) and warm (every stage loaded; zero oracle
   evaluations, zero LP solves).  The in-process oracle memo is dropped
   between the runs so the warm figure measures the disk path.  Each row
   also counts the oracle results of the cold run by the level that
   settled them ({!Oracle.Levels}: the oracle stage and the verdict's
   look-ups of shortcut-path inputs). *)

let rebuilt_stages () =
  List.length
    (List.filter
       (fun e -> e.Pipeline.ev_status = Pipeline.Rebuilt)
       (Pipeline.events ()))

(* Self seconds per stage of one [Pipeline.verified] run, from its
   events.  A rebuilt intervals, constraints or poly stage runs its
   upstream stage inside its own timer, so that stage's seconds are
   subtracted; each stage records at most one event per run. *)
let stage_seconds events =
  let find st = List.find_opt (fun e -> e.Pipeline.ev_stage = st) events in
  let secs st = match find st with Some e -> e.Pipeline.ev_seconds | None -> 0. in
  let upstream : Pipeline.stage -> Pipeline.stage option = function
    | Intervals -> Some Oracle
    | Constraints -> Some Intervals
    | Poly -> Some Constraints
    | Oracle | Verdict -> None
  in
  List.map
    (fun st ->
      match (find st, upstream st) with
      | Some e, Some u when e.Pipeline.ev_status = Pipeline.Rebuilt ->
          (st, e.Pipeline.ev_seconds -. secs u)
      | _ -> (st, secs st))
    Pipeline.all_stages

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Run [f] against a fresh store directory under the temp dir, then
   restore the previous store and delete the directory. *)
let with_temp_store name f =
  let saved = Cache.dir () in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rlibm-bench-%s-%d" name (Unix.getpid ()))
  in
  (try Sys.mkdir tmp 0o755 with Sys_error _ -> ());
  Cache.set_dir tmp;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_dir saved;
      rm_rf tmp)
    f

type gen_timing = {
  g_func : Oracle.func;
  g_cold_s : float;
  g_cold_stages : (Pipeline.stage * float) list;
  g_warm_s : float;
  g_cold_rebuilt : int;
  g_warm_rebuilt : int;
  g_levels : Oracle.Levels.t;  (* oracle results per level, cold run *)
  g_ok : bool;
}

let measure_generation funcs =
  let scheme = Polyeval.EstrinFma in
  with_temp_store "gen" (fun () ->
      List.map
        (fun func ->
          let cfg = Rlibm.Config.mini_for func in
          let timed () =
            Rlibm.Constraints.clear_memory_cache ();
            Pipeline.reset_events ();
            let t0 = Unix.gettimeofday () in
            let r = Pipeline.verified ~cfg ~scheme func in
            (Unix.gettimeofday () -. t0, rebuilt_stages (), r)
          in
          let before = Oracle.Levels.read () in
          let cold_s, cold_rebuilt, cold = timed () in
          let levels = Oracle.Levels.diff (Oracle.Levels.read ()) before in
          let cold_stages = stage_seconds (Pipeline.events ()) in
          let warm_s, warm_rebuilt, warm = timed () in
          Printf.eprintf
            "%-7s cold %6.2fs (%d stages rebuilt)  warm %6.3fs (%d rebuilt)\n%!"
            (Oracle.name func) cold_s cold_rebuilt warm_s warm_rebuilt;
          {
            g_func = func;
            g_cold_s = cold_s;
            g_cold_stages = cold_stages;
            g_warm_s = warm_s;
            g_cold_rebuilt = cold_rebuilt;
            g_warm_rebuilt = warm_rebuilt;
            g_levels = levels;
            g_ok = (match (cold, warm) with Ok _, Ok _ -> true | _ -> false);
          })
        funcs)

let write_gen_json path ~jobs rows =
  Bench_json.write_rows path ~kind:"staged-generation" ~jobs
    ~input_bits:(Softfp.width Rlibm.Config.mini_tin)
    ~fields:
      [ ("scheme", Printf.sprintf "%S" (Polyeval.scheme_name Polyeval.EstrinFma)) ]
    ~key:"generation" ~what:"generation timing rows"
    (fun r ->
      Printf.sprintf
        "{\"func\": %S, \"cold_s\": %.4f, \"cold_stage_s\": {%s}, \
         \"warm_s\": %.4f, \"cold_rebuilt_stages\": %d, \
         \"warm_rebuilt_stages\": %d, \"warm_speedup\": %.1f, \
         \"oracle_levels\": {%s}, \"ok\": %b}"
        (Oracle.name r.g_func) r.g_cold_s
        (String.concat ", "
           (List.map
              (fun (st, sec) ->
                Printf.sprintf "%S: %.4f" (Pipeline.stage_name st) sec)
              r.g_cold_stages))
        r.g_warm_s r.g_cold_rebuilt r.g_warm_rebuilt
        (if r.g_warm_s > 0.0 then r.g_cold_s /. r.g_warm_s else 0.0)
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%S: %d" k n)
              (Oracle.Levels.fields r.g_levels)))
        r.g_ok)
    rows

(* ---------- LP engine: solve statistics per function x scheme ---------- *)

(* Cold polynomial stage of every function x scheme against a fresh
   store, with the LP's Debug events captured: every solve emits one
   record ([lp.solved], [lp.infeasible] or [lp.unbounded]) carrying its
   float/exact pivot split, certificate size and seconds.  The pivot
   counts, solve counts and certificate bits are exact, deterministic
   work counters; the seconds are wall clock. *)
type lp_row = {
  l_func : Oracle.func;
  l_scheme : Polyeval.scheme;
  l_solves : int;
  l_float_pivots : int;
  l_exact_pivots : int;
  l_max_cert_bits : int;
  l_max_rows : int;
  l_lp_s : float;
  l_poly_s : float;
  l_ok : bool;
}

let lp_events = [ "lp.solved"; "lp.infeasible"; "lp.unbounded" ]

let measure_lp funcs schemes =
  with_temp_store "lp" (fun () ->
      List.concat_map
        (fun func ->
          let cfg = Rlibm.Config.mini_for func in
          (* Stages 1-3 are shared by the schemes and make no LP solve. *)
          ignore
            (Pipeline.constraints_stage ~cfg func
              : Rlibm.Constraints.build_result);
          List.map
            (fun scheme ->
              let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
              let t0 = Unix.gettimeofday () in
              let r =
                Diag.with_sinks [ sink ] (fun () ->
                    Pipeline.generate ~cfg ~scheme func)
              in
              let poly_s = Unix.gettimeofday () -. t0 in
              let solves =
                List.filter
                  (fun (e : Diag.ev) -> List.mem e.Diag.ev_name lp_events)
                  (drain ())
              in
              let fold name f init =
                List.fold_left
                  (fun acc (e : Diag.ev) ->
                    match List.assoc_opt name e.Diag.ev_fields with
                    | Some v -> f acc v
                    | None -> acc)
                  init solves
              in
              let ints name f =
                fold name
                  (fun acc -> function Diag.Int v -> f acc v | _ -> acc)
                  0
              in
              let row =
                {
                  l_func = func;
                  l_scheme = scheme;
                  l_solves = List.length solves;
                  l_float_pivots = ints "float_pivots" ( + );
                  l_exact_pivots = ints "exact_pivots" ( + );
                  l_max_cert_bits = ints "maxbits" max;
                  l_max_rows = ints "rows" max;
                  l_lp_s =
                    fold "seconds"
                      (fun acc -> function Diag.Float v -> acc +. v | _ -> acc)
                      0.0;
                  l_poly_s = poly_s;
                  l_ok =
                    Result.is_ok r
                    && fold "certified"
                         (fun ok v -> ok && v = Diag.Bool true)
                         true;
                }
              in
              Printf.eprintf
                "%-6s %-10s %4d solves  %6d float + %5d exact pivots  \
                 max %4d cert bits  LP %7.3fs of %7.3fs  %s\n%!"
                (Oracle.name func) (Polyeval.scheme_name scheme) row.l_solves
                row.l_float_pivots row.l_exact_pivots row.l_max_cert_bits
                row.l_lp_s row.l_poly_s
                (if row.l_ok then "ok" else "FAILED");
              row)
            schemes)
        funcs)

let write_lp_json path ~jobs rows =
  Bench_json.write_rows path ~kind:"lp" ~jobs
    ~input_bits:(Softfp.width Rlibm.Config.mini_tin) ~key:"results"
    ~what:"LP rows"
    (fun r ->
      Printf.sprintf
        "{\"func\": %S, \"scheme\": %S, \"solves\": %d, \
         \"float_pivots\": %d, \"exact_pivots\": %d, \
         \"max_cert_bits\": %d, \"max_rows\": %d, \"lp_s\": %.4f, \
         \"poly_s\": %.4f, \"ok\": %b}"
        (Oracle.name r.l_func) (Polyeval.scheme_name r.l_scheme) r.l_solves
        r.l_float_pivots r.l_exact_pivots r.l_max_cert_bits r.l_max_rows
        r.l_lp_s r.l_poly_s r.l_ok)
    rows

(* ---------- driver ---------- *)

type section = Table1 | Table2 | Post_process | Correctness | Cost

let sections_arg =
  let section s name doc = (s, Arg.info [ name ] ~doc) in
  Arg.(
    value
    & vflag_all []
        [
          section Table1 "table1"
            "E1: Table 1, properties of the generated polynomials.";
          section Table2 "table2"
            "E2: Table 2 and the Figure 6 series, Bechamel timings of every \
             scheme against Horner.";
          section Post_process "post-process"
            "E3: post-process adaptation of the Horner polynomials against \
             the integrated loop.";
          section Correctness "correctness"
            "E4: exhaustive verification for all representations and \
             rounding modes.";
          section Cost "cost"
            "Static cost model: operation counts and dependence depth.";
        ])

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Run exp2 and log2 only (default: all six).")

let path_arg name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)

let json_arg = path_arg "json" "Also write the E2 timings as JSON to $(docv)."

let gen_json_arg =
  path_arg "gen-json"
    "Write cold vs warm staged-generation timings per function, measured \
     in a fresh store directory, as JSON to $(docv)."

let lp_json_arg =
  path_arg "lp-json"
    "Write the LP solve statistics of the cold polynomial stage per \
     function x scheme (horner and estrin-fma) as JSON to $(docv)."

let run sections quick json_path gen_json_path lp_json_path jobs cache_dir
    cache_stats log_level trace =
  Cli.set_jobs jobs;
  let jobs = Parallel.jobs () in
  Cli.install_diag ~jobs ~level:log_level ~trace ();
  Cli.set_cache_dir cache_dir;
  let funcs = if quick then [ Oracle.Exp2; Oracle.Log2 ] else Oracle.all in
  let all = sections = [] && gen_json_path = None && lp_json_path = None in
  let want s = all || List.mem s sections in
  Printf.eprintf
    "rlibm-fastpoly benchmark harness (%d functions x %d schemes, %d-bit \
     inputs, -j %d)\n\n%!"
    (List.length funcs)
    (List.length Polyeval.paper_schemes)
    (Softfp.width Rlibm.Config.mini_tin)
    jobs;
  if want Cost then print_cost_model ();
  let need_timings = want Table2 || json_path <> None in
  let need_grid =
    need_timings || want Table1 || want Post_process || want Correctness
  in
  let grid = if need_grid then generate_grid funcs else [] in
  if want Table1 then print_table1 grid;
  let timings = if need_timings then measure_grid grid else [] in
  if want Table2 then print_table2 timings;
  Option.iter (fun path -> write_json path ~jobs timings) json_path;
  if want Post_process then print_post_process grid;
  if want Correctness then print_correctness grid;
  Option.iter
    (fun path ->
      prerr_endline
        "== staged generation: cold vs warm store (fresh directory) ==";
      write_gen_json path ~jobs (measure_generation funcs))
    gen_json_path;
  Option.iter
    (fun path ->
      prerr_endline "== LP engine: cold polynomial stage (fresh directory) ==";
      write_lp_json path ~jobs
        (measure_lp funcs [ Polyeval.Horner; Polyeval.EstrinFma ]))
    lp_json_path;
  Cli.report_cache_stats cache_stats

let () =
  let doc =
    "Regenerate the paper's evaluation (Tables 1-2, Figure 6, the §6.3 \
     experiments) on the reduced-width universe"
  in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "bench" ~doc)
          Term.(
            const run $ sections_arg $ quick_arg $ json_arg $ gen_json_arg
            $ lp_json_arg $ Cli.jobs_arg $ Cli.cache_dir_arg
            $ Cli.cache_stats_arg $ Cli.log_level_arg $ Cli.trace_arg)))
