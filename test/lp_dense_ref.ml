(* The dense two-phase tableau simplex that backed [Lp.maximize] before
   the float-pivoting, exactly-certified solver replaced it, kept verbatim
   as the differential reference for test_lp.ml.  It is slow (a GCD on
   every rational operation, a slack column per row, split free
   variables) but simple enough to trust.  Its [lp.solved] Debug event is
   the old one; tests that count events run it without a listening sink. *)

module R = Rat

type status = Lp.status = Optimal of Rat.t array * Rat.t | Infeasible | Unbounded

(* ---------- dense tableau simplex ----------

   Standard form used internally:

     max  c . y      s.t.  T y = rhs,  y >= 0

   Free problem variables are split as y = x+ - x-.  Each inequality gets a
   slack; rows with negative rhs are negated and get an artificial for
   phase 1.  Bland's rule on both the entering and leaving choices makes
   cycling impossible, so the solver always terminates.

   [width] is the total number of structural columns (the rhs lives at
   index [width]); [scan] limits which columns may enter the basis — after
   phase 1 it excludes the artificial columns so they can never return. *)

type tableau = {
  width : int;
  mutable scan : int;
  rows : int;
  t : R.t array array; (* rows x (width + 1) *)
  basis : int array;   (* basis.(i) = column basic in row i *)
}

(* Pivot the constraint rows and the maintained objective (z) row. *)
let pivot tb zrow ~row ~col =
  let trow = tb.t.(row) in
  let inv = R.inv trow.(col) in
  for j = 0 to tb.width do
    trow.(j) <- R.mul trow.(j) inv
  done;
  let eliminate (ti : R.t array) =
    let f = ti.(col) in
    if not (R.is_zero f) then
      for j = 0 to tb.width do
        ti.(j) <- R.sub ti.(j) (R.mul f trow.(j))
      done
  in
  for i = 0 to tb.rows - 1 do
    if i <> row then eliminate tb.t.(i)
  done;
  eliminate zrow;
  tb.basis.(row) <- col

(* Build the z-row (reduced costs, z_j - c_j) for objective [c]: one
   O(rows * width) pass per phase; pivots keep it current afterwards. *)
let make_zrow tb c =
  let zrow = Array.make (tb.width + 1) R.zero in
  for j = 0 to tb.width do
    let z = ref R.zero in
    for i = 0 to tb.rows - 1 do
      let cb = c.(tb.basis.(i)) in
      if not (R.is_zero cb) then z := R.add !z (R.mul cb tb.t.(i).(j))
    done;
    zrow.(j) <- (if j = tb.width then !z else R.sub !z c.(j))
  done;
  zrow

let pivot_count = ref 0

(* One simplex phase: maximize c.y from the current basic feasible point.
   Pricing is Dantzig (most negative reduced cost) for speed, switching to
   Bland's rule after a budget of pivots so cycling cannot prevent
   termination. *)
let run_phase tb zrow =
  let dantzig_budget = ref (64 + (8 * tb.rows)) in
  let rec iterate () =
    let entering =
      if !dantzig_budget > 0 then begin
        decr dantzig_budget;
        let best = ref None in
        for j = 0 to tb.scan - 1 do
          if R.sign zrow.(j) < 0 then
            match !best with
            | Some (v, _) when R.compare zrow.(j) v >= 0 -> ()
            | _ -> best := Some (zrow.(j), j)
        done;
        Option.map snd !best
      end
      else begin
        (* Bland: smallest column index with negative reduced cost. *)
        let rec find j =
          if j >= tb.scan then None
          else if R.sign zrow.(j) < 0 then Some j
          else find (j + 1)
        in
        find 0
      end
    in
    match entering with
    | None -> `Optimal
    | Some col -> (
        (* Ratio test; Bland tie-break on the leaving basis variable. *)
        let best = ref None in
        for i = 0 to tb.rows - 1 do
          let a = tb.t.(i).(col) in
          if R.sign a > 0 then begin
            let ratio = R.div tb.t.(i).(tb.width) a in
            match !best with
            | None -> best := Some (ratio, i)
            | Some (r, i') ->
                let cmp = R.compare ratio r in
                if cmp < 0 || (cmp = 0 && tb.basis.(i) < tb.basis.(i')) then
                  best := Some (ratio, i)
          end
        done;
        match !best with
        | None -> `Unbounded
        | Some (_, row) ->
            incr pivot_count;
            pivot tb zrow ~row ~col;
            iterate ())
  in
  iterate ()

let objective_value tb c =
  let v = ref R.zero in
  for i = 0 to tb.rows - 1 do
    let cb = c.(tb.basis.(i)) in
    if not (R.is_zero cb) then v := R.add !v (R.mul cb tb.t.(i).(tb.width))
  done;
  !v

let maximize ~obj ~rows =
  let n = Array.length obj in
  let m = Array.length rows in
  Array.iter
    (fun (a, _) ->
      if Array.length a <> n then invalid_arg "Lp.maximize: row length")
    rows;
  let neg_rows =
    Array.fold_left (fun acc (_, b) -> if R.sign b < 0 then acc + 1 else acc) 0 rows
  in
  let real_cols = (2 * n) + m in
  let width = real_cols + neg_rows in
  let t = Array.make_matrix m (width + 1) R.zero in
  let basis = Array.make m 0 in
  let art_idx = ref real_cols in
  Array.iteri
    (fun i (a, b) ->
      let negate = R.sign b < 0 in
      let put j v = t.(i).(j) <- (if negate then R.neg v else v) in
      for k = 0 to n - 1 do
        put k a.(k);
        put (n + k) (R.neg a.(k))
      done;
      put ((2 * n) + i) R.one;
      t.(i).(width) <- (if negate then R.neg b else b);
      if negate then begin
        t.(i).(!art_idx) <- R.one;
        basis.(i) <- !art_idx;
        incr art_idx
      end
      else basis.(i) <- (2 * n) + i)
    rows;
  let tb = { width; scan = width; rows = m; t; basis } in
  (* Phase 1: maximize -(sum of artificials). *)
  let phase1 =
    if neg_rows = 0 then `Feasible
    else begin
      let c1 = Array.make width R.zero in
      for j = real_cols to width - 1 do
        c1.(j) <- R.minus_one
      done;
      match run_phase tb (make_zrow tb c1) with
      | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
      | `Optimal ->
          if R.sign (objective_value tb c1) < 0 then `Infeasible
          else begin
            (* Try to drive basic artificials (all at value zero) out; a row
               where that is impossible is redundant and stays harmlessly. *)
            for i = 0 to m - 1 do
              if tb.basis.(i) >= real_cols then begin
                let rec find j =
                  if j >= real_cols then None
                  else if not (R.is_zero tb.t.(i).(j)) then Some j
                  else find (j + 1)
                in
                match find 0 with
                | Some col ->
                    (* The z-row is rebuilt for phase 2; a throwaway one
                       keeps the pivot uniform here. *)
                    pivot tb (Array.make (tb.width + 1) R.zero) ~row:i ~col
                | None -> ()
              end
            done;
            `Feasible
          end
    end
  in
  match phase1 with
  | `Infeasible -> Infeasible
  | `Feasible -> (
      (* Phase 2: artificial columns are frozen out of the entering scan. *)
      tb.scan <- real_cols;
      let c2 = Array.make width R.zero in
      for k = 0 to n - 1 do
        c2.(k) <- obj.(k);
        c2.(n + k) <- R.neg obj.(k)
      done;
      match run_phase tb (make_zrow tb c2) with
      | `Unbounded -> Unbounded
      | `Optimal ->
          (* Tableau statistics are Debug-level diagnostics; the maxbits
             scan is quadratic in the tableau, so it only runs when a
             sink actually listens (the [Diag.event] thunk is not forced
             otherwise). *)
          Diag.event ~level:Diag.Debug "lp.solved" (fun () ->
              let maxbits = ref 0 in
              Array.iter
                (Array.iter (fun e ->
                     maxbits :=
                       Stdlib.max !maxbits
                         (Bigint.numbits (R.num e) + Bigint.numbits (R.den e))))
                t;
              [
                ("rows", Diag.Int m);
                ("pivots_cum", Diag.Int !pivot_count);
                ("maxbits", Diag.Int !maxbits);
              ]);
          let y = Array.make width R.zero in
          for i = 0 to m - 1 do
            y.(tb.basis.(i)) <- t.(i).(width)
          done;
          let x = Array.init n (fun k -> R.sub y.(k) y.(n + k)) in
          Optimal (x, objective_value tb c2))
