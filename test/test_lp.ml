(* Tests for the exact-rational simplex and the interval-system driver. *)

let r = Rat.of_int
let rr = Rat.of_ints

let opt_value = function
  | Lp.Optimal (_, v) -> v
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_basic_max () =
  (* max x + y s.t. x <= 3, y <= 4, x + y <= 5 *)
  let v =
    opt_value
      (Lp.maximize ~obj:[| r 1; r 1 |]
         ~rows:
           [|
             ([| r 1; r 0 |], r 3); ([| r 0; r 1 |], r 4); ([| r 1; r 1 |], r 5);
           |])
  in
  Alcotest.(check string) "objective" "5" (Rat.to_string v)

let test_infeasible () =
  match
    Lp.maximize ~obj:[| r 1 |] ~rows:[| ([| r 1 |], r 1); ([| r (-1) |], r (-2)) |]
  with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "should be infeasible"

let test_unbounded () =
  match Lp.maximize ~obj:[| r 1 |] ~rows:[| ([| r (-1) |], r 0) |] with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "should be unbounded"

let test_free_variables () =
  (* max -x s.t. -x <= 10: optimum at x = -10 *)
  match Lp.maximize ~obj:[| r (-1) |] ~rows:[| ([| r (-1) |], r 10) |] with
  | Lp.Optimal (sol, v) ->
      Alcotest.(check string) "value" "10" (Rat.to_string v);
      Alcotest.(check string) "solution" "-10" (Rat.to_string sol.(0))
  | _ -> Alcotest.fail "should be optimal"

let test_phase1_degenerate () =
  (* equality-like: x + y <= 2, x >= 1, y >= 1 pins x = y = 1 *)
  match
    Lp.maximize ~obj:[| r 1; r 2 |]
      ~rows:
        [|
          ([| r 1; r 1 |], r 2);
          ([| r (-1); r 0 |], r (-1));
          ([| r 0; r (-1) |], r (-1));
        |]
  with
  | Lp.Optimal (sol, v) ->
      Alcotest.(check string) "obj" "3" (Rat.to_string v);
      Alcotest.(check string) "x" "1" (Rat.to_string sol.(0));
      Alcotest.(check string) "y" "1" (Rat.to_string sol.(1))
  | _ -> Alcotest.fail "should be optimal"

let test_exact_rational_vertex () =
  (* Vertex with non-integer rational coordinates must come out exact:
     max x + y s.t. 2x + 3y <= 7, 3x + 2y <= 7 -> x = y = 7/5. *)
  match
    Lp.maximize ~obj:[| r 1; r 1 |]
      ~rows:[| ([| r 2; r 3 |], r 7); ([| r 3; r 2 |], r 7) |]
  with
  | Lp.Optimal (sol, v) ->
      Alcotest.(check string) "x" "7/5" (Rat.to_string sol.(0));
      Alcotest.(check string) "y" "7/5" (Rat.to_string sol.(1));
      Alcotest.(check string) "obj" "14/5" (Rat.to_string v)
  | _ -> Alcotest.fail "should be optimal"

let test_interval_cubic_fit () =
  let powers = [| 0; 1; 2; 3 |] in
  let truth x = Rat.(add (sub (pow x 3) (mul (of_int 2) x)) one) in
  let points =
    Array.init 400 (fun i ->
        let x = rr (i - 200) 80 in
        let v = truth x in
        let eps = rr 1 1000 in
        { Lp.x; lo = Rat.sub v eps; hi = Rat.add v eps })
  in
  match Lp.solve_interval_system ~powers points with
  | Lp.Sat (coeffs, _) ->
      Array.iter
        (fun pt ->
          let v = Lp.eval_poly ~powers coeffs pt.Lp.x in
          Alcotest.(check bool) "in window" true
            (Rat.compare pt.Lp.lo v <= 0 && Rat.compare v pt.Lp.hi <= 0))
        points
  | Lp.Unsat -> Alcotest.fail "cubic fit should be satisfiable"

let test_interval_infeasible () =
  let mk x v =
    { Lp.x = r x; lo = Rat.sub (r v) (rr 1 100); hi = Rat.add (r v) (rr 1 100) }
  in
  match
    Lp.solve_interval_system ~powers:[| 0; 1 |] [| mk 0 0; mk 1 1; mk 2 0 |]
  with
  | Lp.Unsat -> ()
  | Lp.Sat _ -> Alcotest.fail "line through 3 non-collinear windows"

let test_interval_degenerate_point () =
  (* A degenerate window [v,v] forces exact interpolation. *)
  let pts =
    [|
      { Lp.x = r 0; lo = r 1; hi = r 1 };
      { Lp.x = r 1; lo = rr 19 10; hi = rr 21 10 };
    |]
  in
  match Lp.solve_interval_system ~powers:[| 0; 1 |] pts with
  | Lp.Sat (coeffs, _) ->
      Alcotest.(check string) "c0 pinned" "1" (Rat.to_string coeffs.(0))
  | Lp.Unsat -> Alcotest.fail "degenerate point is satisfiable"

let test_warm_start () =
  let powers = [| 0; 1; 2 |] in
  let truth x = Rat.(add (mul x x) one) in
  let points =
    Array.init 200 (fun i ->
        let x = rr (i - 100) 40 in
        let v = truth x in
        { Lp.x; lo = Rat.sub v (rr 1 50); hi = Rat.add v (rr 1 50) })
  in
  match Lp.solve_interval_system ~powers points with
  | Lp.Unsat -> Alcotest.fail "should fit"
  | Lp.Sat (_, working) -> (
      (* re-solving with the warm start must also succeed *)
      match Lp.solve_interval_system ~initial_working:working ~powers points with
      | Lp.Sat (coeffs, _) ->
          Array.iter
            (fun pt ->
              let v = Lp.eval_poly ~powers coeffs pt.Lp.x in
              Alcotest.(check bool) "warm in window" true
                (Rat.compare pt.Lp.lo v <= 0 && Rat.compare v pt.Lp.hi <= 0))
            points
      | Lp.Unsat -> Alcotest.fail "warm start lost feasibility")


let test_tilt_changes_vertex () =
  (* With a box of feasible polynomials, different tilts should be able to
     reach different optima while staying feasible. *)
  let powers = [| 0; 1 |] in
  let points =
    Array.init 50 (fun i ->
        let x = rr i 50 in
        { Lp.x; lo = r 0; hi = r 1 })
  in
  let solve tilt =
    match Lp.solve_interval_system ?tilt ~powers points with
    | Lp.Sat (coeffs, _) ->
        Array.iter
          (fun pt ->
            let v = Lp.eval_poly ~powers coeffs pt.Lp.x in
            Alcotest.(check bool) "feasible under tilt" true
              (Rat.compare pt.Lp.lo v <= 0 && Rat.compare v pt.Lp.hi <= 0))
          points;
        coeffs
    | Lp.Unsat -> Alcotest.fail "box system is satisfiable"
  in
  let base = solve None in
  let up = solve (Some [| rr 1 1000; Rat.zero |]) in
  let down = solve (Some [| rr (-1) 1000; Rat.zero |]) in
  (* tilting c0 up vs down must order the constant terms *)
  Alcotest.(check bool) "tilt direction respected" true
    (Rat.compare down.(0) up.(0) <= 0);
  ignore base

let test_mono_bits_still_feasible () =
  (* Rounded monomials must not break feasibility verdicts on a system
     with comfortable windows. *)
  let powers = [| 0; 1; 2; 3; 4; 5 |] in
  let points =
    Array.init 300 (fun i ->
        (* x with a full 53-bit mantissa *)
        let x = Rat.of_float (0.001 +. (float_of_int i *. 0.00333)) in
        let v = Rat.of_float (exp (Rat.to_float x)) in
        { Lp.x; lo = Rat.sub v (rr 1 10000); hi = Rat.add v (rr 1 10000) })
  in
  match Lp.solve_interval_system ~mono_bits:64 ~powers points with
  | Lp.Sat (coeffs, _) ->
      (* check against the EXACT monomials: the solution may exceed the
         window only by the monomial perturbation, which is far below the
         window width here *)
      Array.iter
        (fun pt ->
          let v = Lp.eval_poly ~powers coeffs pt.Lp.x in
          let slack = rr 1 100000 in
          Alcotest.(check bool) "within widened window" true
            (Rat.compare (Rat.sub pt.Lp.lo slack) v <= 0
            && Rat.compare v (Rat.add pt.Lp.hi slack) <= 0))
        points
  | Lp.Unsat -> Alcotest.fail "smooth degree-5 fit must be satisfiable"

let test_degenerate_with_tilt () =
  (* A degenerate window must pin the polynomial exactly even under
     tilt. *)
  let pts =
    [|
      { Lp.x = r 0; lo = r 1; hi = r 1 };
      { Lp.x = r 1; lo = rr 19 10; hi = rr 21 10 };
    |]
  in
  match
    Lp.solve_interval_system ~tilt:[| rr 1 64; rr (-1) 64 |] ~powers:[| 0; 1 |]
      pts
  with
  | Lp.Sat (coeffs, _) ->
      Alcotest.(check string) "c0 pinned under tilt" "1"
        (Rat.to_string coeffs.(0))
  | Lp.Unsat -> Alcotest.fail "satisfiable"

(* Random LP property: simplex result is feasible, and no better feasible
   point exists among random samples (soundness of optimality). *)
let prop_simplex_sound =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 3 in
      let* m = int_range 1 6 in
      let* entries = list_size (return (m * n)) (int_range (-5) 5) in
      let* rhs = list_size (return m) (int_range 0 10) in
      let* obj = list_size (return n) (int_range (-3) 3) in
      return (n, m, entries, rhs, obj))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"simplex optimum dominates samples" gen
       (fun (n, m, entries, rhs, obj) ->
         let a = Array.of_list (List.map r entries) in
         let rows =
           Array.init m (fun i ->
               (Array.init n (fun j -> a.((i * n) + j)), r (List.nth rhs i)))
         in
         let objv = Array.of_list (List.map r obj) in
         match Lp.maximize ~obj:objv ~rows with
         | Lp.Infeasible -> true (* rhs >= 0 makes 0 feasible: impossible *)
         | Lp.Unbounded -> true
         | Lp.Optimal (sol, v) ->
             (* solution satisfies all rows *)
             let feasible x =
               Array.for_all
                 (fun (row, b) ->
                   let dot = ref Rat.zero in
                   Array.iteri
                     (fun j c -> dot := Rat.add !dot (Rat.mul c x.(j)))
                     row;
                   Rat.compare !dot b <= 0)
                 rows
             in
             let objective x =
               let acc = ref Rat.zero in
               Array.iteri (fun j c -> acc := Rat.add !acc (Rat.mul objv.(j) c)) x;
               !acc
             in
             feasible sol
             && Rat.equal (objective sol) v
             &&
             (* random feasible samples never beat the optimum *)
             let st = Random.State.make [| 7 |] in
             let ok = ref true in
             for _ = 1 to 30 do
               let x =
                 Array.init n (fun _ ->
                     rr (Random.State.int st 21 - 10) (1 + Random.State.int st 4))
               in
               if feasible x && Rat.compare (objective x) v > 0 then ok := false
             done;
             !ok))

(* ---------- differential checks against the dense tableau ---------- *)

let rows_of (n, entries, rhs) =
  let a = Array.of_list (List.map r entries) in
  Array.of_list
    (List.mapi (fun i b -> (Array.init n (fun j -> a.((i * n) + j)), r b)) rhs)

let describe = function
  | Lp.Optimal (x, v) ->
      Printf.sprintf "optimal %s at [%s]" (Rat.to_string v)
        (String.concat "; " (Array.to_list (Array.map Rat.to_string x)))
  | Lp.Infeasible -> "infeasible"
  | Lp.Unbounded -> "unbounded"

(* Same status, exactly equal objective, and — because the pivot rule is
   the reference's — the same vertex, also on LPs with many optima. *)
let agrees ~obj ~rows =
  let got, st = Lp.maximize_stats ~obj ~rows in
  let want = Lp_dense_ref.maximize ~obj ~rows in
  let same =
    match (got, want) with
    | Lp.Optimal (x, v), Lp.Optimal (x', v') ->
        Rat.equal v v' && Array.for_all2 Rat.equal x x'
    | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> true
    | _ -> false
  in
  if not same then
    QCheck2.Test.fail_reportf "new: %s@.reference: %s" (describe got) (describe want);
  st.Lp.certified

(* Random LPs with small integer data: zeros and repeated rows make
   degenerate vertices and ties common, negative right-hand sides force
   phase 1, and with few rows many are unbounded or infeasible. *)
let gen_lp =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* m = int_range 0 8 in
    let small = frequency [ (3, return 0); (7, int_range (-4) 4) ] in
    let* entries = list_size (return (m * n)) small in
    let* rhs =
      list_size (return m) (frequency [ (3, return 0); (7, int_range (-6) 6) ])
    in
    let* dup = bool in
    let* obj = list_size (return n) (int_range (-3) 3) in
    (* Repeat the first row: a degenerate vertex whenever it is tight. *)
    let entries, rhs =
      if dup && m > 0 then
        (entries @ List.filteri (fun i _ -> i < n) entries, rhs @ [ List.hd rhs ])
      else (entries, rhs)
    in
    return (n, entries, rhs, obj))

let prop_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"maximize matches the dense tableau" gen_lp
       (fun (n, entries, rhs, obj) ->
         agrees
           ~obj:(Array.of_list (List.map r obj))
           ~rows:(rows_of (n, entries, rhs))))

(* The generator above does reach every verdict and degenerate optima. *)
let test_reference_coverage () =
  let st = Random.State.make [| 12 |] in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 400 do
    let n, entries, rhs, obj = QCheck2.Gen.generate1 ~rand:st gen_lp in
    let obj = Array.of_list (List.map r obj) and rows = rows_of (n, entries, rhs) in
    ignore (agrees ~obj ~rows : bool);
    let kind =
      match Lp_dense_ref.maximize ~obj ~rows with
      | Lp.Optimal (x, _) ->
          let tight =
            Array.fold_left
              (fun acc (a, b) ->
                let dot = ref Rat.zero in
                Array.iteri (fun j c -> dot := Rat.add !dot (Rat.mul c x.(j))) a;
                if Rat.equal !dot b then acc + 1 else acc)
              0 rows
          in
          if tight > n then "degenerate" else "optimal"
      | Lp.Infeasible -> "infeasible"
      | Lp.Unbounded -> "unbounded"
    in
    Hashtbl.replace seen kind ();
    if List.exists (fun b -> b < 0) rhs then Hashtbl.replace seen "negative rhs" ()
  done;
  List.iter
    (fun k -> Alcotest.(check bool) k true (Hashtbl.mem seen k))
    [ "optimal"; "degenerate"; "infeasible"; "unbounded"; "negative rhs" ]

(* Every interval system a cold generation solves, replayed with the
   reference tableau as the LP engine: identical verdicts and identical
   [Sat] coefficients. *)
let test_replay_generation () =
  List.iter
    (fun (func, scheme) ->
      let cfg = Rlibm.Config.mini_for func in
      let recorded = ref [] in
      let gen =
        Lp.with_recorder
          (fun inst -> recorded := inst :: !recorded)
          (fun () -> Test_util.generate ~cfg ~scheme func)
      in
      Alcotest.(check bool) "generation ok" true (Result.is_ok gen);
      Alcotest.(check bool) "solves recorded" true (!recorded <> []);
      List.iter
        (fun inst ->
          let same =
            match
              ( Lp.solve_instance inst,
                Lp.solve_instance ~maximize:Lp_dense_ref.maximize inst )
            with
            | Lp.Sat (c, w), Lp.Sat (c', w') ->
                Array.for_all2 Rat.equal c c'
                && List.sort compare w = List.sort compare w'
            | Lp.Unsat, Lp.Unsat -> true
            | _ -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: replayed system agrees" (Oracle.name func)
               (Polyeval.scheme_name scheme))
            true same)
        !recorded)
    [ (Oracle.Exp2, Polyeval.EstrinFma); (Oracle.Log2, Polyeval.EstrinFma) ]

(* ---------- exact fallback and certificates ---------- *)

let lp_records f =
  let sink, drain = Diag.memory_sink ~min_level:Diag.Debug () in
  let r = Diag.with_sinks [ sink ] f in
  let evs =
    List.filter
      (fun (e : Diag.ev) ->
        List.mem e.Diag.ev_name [ "lp.solved"; "lp.infeasible"; "lp.unbounded" ])
      (drain ())
  in
  (r, evs)

let int_field name (e : Diag.ev) =
  match List.assoc_opt name e.Diag.ev_fields with Some (Diag.Int v) -> v | _ -> -1

(* A degree-6 fit on a cluster of points at |x| ~ 2^-20 with exact
   (unrounded) monomials: the basis spans 120 binades, its double
   inverse carries no usable error bound, so decisions fall back to
   exact pivots — and the result still equals the reference's. *)
let test_ill_conditioned_fallback () =
  let powers = Array.init 7 Fun.id in
  let points =
    Array.init 24 (fun i ->
        let x = Rat.of_float (Float.ldexp (1.0 +. (float_of_int i /. 17.0)) (-20)) in
        let v = Rat.of_float (exp (Rat.to_float x)) in
        let w = Rat.mul_pow2 Rat.one (-40) in
        { Lp.x; lo = Rat.sub v w; hi = Rat.add v w })
  in
  let inst = Lp.instance ~powers points in
  let got, evs = lp_records (fun () -> Lp.solve_instance inst) in
  let exact = List.fold_left (fun acc e -> acc + int_field "exact_pivots" e) 0 evs in
  Alcotest.(check bool) "exact pivots ran" true (exact > 0);
  List.iter
    (fun (e : Diag.ev) ->
      Alcotest.(check bool) "certified" true
        (List.assoc_opt "certified" e.Diag.ev_fields = Some (Diag.Bool true)))
    evs;
  match (got, Lp.solve_instance ~maximize:Lp_dense_ref.maximize inst) with
  | Lp.Sat (c, _), Lp.Sat (c', _) ->
      Alcotest.(check bool) "same coefficients as the reference" true
        (Array.for_all2 Rat.equal c c')
  | _ -> Alcotest.fail "expected Sat from both engines"

(* An infeasible verdict is returned only with a Farkas certificate that
   checked exactly. *)
let test_unsat_farkas () =
  let status, st =
    Lp.maximize_stats ~obj:[| r 1 |]
      ~rows:[| ([| r 1 |], r 1); ([| r (-1) |], r (-2)) |]
  in
  Alcotest.(check bool) "infeasible" true (status = Lp.Infeasible);
  Alcotest.(check bool) "certified" true st.Lp.certified;
  Alcotest.(check string) "by Farkas" "farkas" st.Lp.certificate;
  let mk x v =
    { Lp.x = r x; lo = Rat.sub (r v) (rr 1 100); hi = Rat.add (r v) (rr 1 100) }
  in
  let res, evs =
    lp_records (fun () ->
        Lp.solve_interval_system ~powers:[| 0; 1 |] [| mk 0 0; mk 1 1; mk 2 0 |])
  in
  Alcotest.(check bool) "Unsat" true (res = Lp.Unsat);
  match List.rev evs with
  | last :: _ ->
      Alcotest.(check string) "last solve infeasible" "lp.infeasible" last.Diag.ev_name;
      Alcotest.(check bool) "Farkas certificate checked" true
        (List.assoc_opt "certified" last.Diag.ev_fields = Some (Diag.Bool true)
        && List.assoc_opt "certificate" last.Diag.ev_fields
           = Some (Diag.String "farkas"))
  | [] -> Alcotest.fail "no LP record"

(* The monomial table Generate builds from each double's significand
   holds the same values, rational and double, as the generic rounding
   of exact powers that [Lp.instance ~mono_bits] applies. *)
let prop_float_monomials =
  let gen =
    QCheck2.Gen.(
      let* x =
        frequency
          [
            ( 4,
              map
                (fun f -> Float.ldexp (f -. 0.5) (-3))
                (float_bound_inclusive 1.0) );
            (1, map Int64.float_of_bits int64);
            (1, oneofl [ 0.0; -0.0; 1.0; -1.0; Float.min_float; 4.9e-324 ]);
          ]
      in
      let x = if Float.is_finite x then x else 0.75 in
      let* k = int_bound 8 in
      let* bits = oneofl [ 24; 53; 64 ] in
      return (x, k, bits))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"float monomials match mono_bits rounding" gen
       (fun (x, k, bits) ->
         let q, f = Lp.float_monomial ~bits x k in
         let inst =
           Lp.instance ~mono_bits:bits ~powers:[| k |]
             [| { Lp.x = Rat.of_float x; lo = Rat.zero; hi = Rat.zero } |]
         in
         Rat.equal q inst.Lp.monos.(0).(0)
         && Int64.equal (Int64.bits_of_float f)
              (Int64.bits_of_float inst.Lp.monos_f.(0).(0))))

let suite =
  [
    ("basic maximization", `Quick, test_basic_max);
    ("infeasibility", `Quick, test_infeasible);
    ("unboundedness", `Quick, test_unbounded);
    ("free variables", `Quick, test_free_variables);
    ("phase-1 degenerate", `Quick, test_phase1_degenerate);
    ("exact rational vertex", `Quick, test_exact_rational_vertex);
    ("interval cubic fit", `Quick, test_interval_cubic_fit);
    ("interval infeasible", `Quick, test_interval_infeasible);
    ("degenerate window", `Quick, test_interval_degenerate_point);
    ("warm start", `Quick, test_warm_start);
    ("objective tilt", `Quick, test_tilt_changes_vertex);
    ("rounded monomials", `Quick, test_mono_bits_still_feasible);
    ("degenerate window under tilt", `Quick, test_degenerate_with_tilt);
    prop_simplex_sound;
    prop_matches_reference;
    ("differential coverage", `Quick, test_reference_coverage);
    ("replayed generation matches reference", `Slow, test_replay_generation);
    ("ill-conditioned exact fallback", `Quick, test_ill_conditioned_fallback);
    ("unsat carries a Farkas certificate", `Quick, test_unsat_farkas);
    prop_float_monomials;
  ]
