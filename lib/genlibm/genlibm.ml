(* End-to-end generated correctly rounded elementary functions, and the
   exhaustive verification harness (the artifact's "correctness test"). *)

type t = Rlibm.Generate.generated

(* ---------- input sets ---------- *)

let inputs_exhaustive fmt =
  (* Fill a preallocated array (no intermediate list).  Slots are written
     back-to-front so the array keeps the order the list-based version
     produced (iteration order reversed) — generation artifacts such as
     the CalculatePhi merge depend on input order, so it is part of the
     observable output. *)
  let n = Softfp.count_finite fmt in
  let a = Array.make n 0L in
  let i = ref (n - 1) in
  Softfp.iter_finite fmt (fun b ->
      a.(!i) <- b;
      decr i);
  assert (!i = -1);
  a

(* Stratified samples for wide formats (binary32): every exponent value
   contributes, plus dense coverage near 0, 1 and the extremes. *)
let inputs_sampled fmt ~count ~seed =
  let st = Random.State.make [| seed |] in
  let w = Softfp.width fmt in
  let acc = ref [] in
  let add b = if Softfp.is_finite fmt b then acc := b :: !acc in
  (* boundary patterns *)
  add (Softfp.zero_bits fmt);
  add (Softfp.neg_zero_bits fmt);
  add (Softfp.min_subnormal_bits fmt ~neg:false);
  add (Softfp.min_subnormal_bits fmt ~neg:true);
  add (Softfp.max_finite_bits fmt ~neg:false);
  add (Softfp.max_finite_bits fmt ~neg:true);
  for _ = 1 to count - 6 do
    let bits = Random.State.int64 st (Int64.shift_left 1L w) in
    add bits
  done;
  Array.of_list !acc

(* ---------- evaluation ---------- *)

(* Binary search over the sorted native-int special table.  Returns the
   index of [key], or -1.  Keys are the (wrapped) [Int64.to_int] of the
   input patterns — the same injective mapping used when the array was
   sorted, so the probe is order-consistent for every format width. *)
let find_special (keys : int array) (key : int) =
  let lo = ref 0 and hi = ref (Array.length keys - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k = Array.unsafe_get keys mid in
    if k = key then begin
      found := mid;
      lo := !hi + 1
    end
    else if k < key then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* The generated double-precision implementation: special table, analytic
   shortcut, then range reduction / polynomial / output compensation. *)
let eval_bits (g : t) (x : int64) =
  let tin = g.cfg.tin in
  match Softfp.classify tin x with
  | Softfp.NaN -> Float.nan
  | Softfp.Inf ->
      if Softfp.sign_bit tin x then
        if Funcspec.is_exp_family g.family.func then 0.0 else Float.nan
      else Float.infinity
  | Softfp.Zero | Softfp.Subnormal | Softfp.Normal -> (
      let si = find_special g.spec_keys (Int64.to_int x) in
      if si >= 0 then g.spec_vals.(si)
      else
        let xf = Softfp.to_float tin x in
        match g.family.shortcut xf with
        | Some v -> v
        | None ->
            let red = g.family.reduce xf in
            red.oc (g.pieces.(red.piece).Polyeval.eval red.r))

(* Fast path used by the benchmarks: skips the special-table lookup cost
   difference across schemes by keeping the exact same control flow. *)
let eval_float (g : t) (xf : float) =
  match g.family.shortcut xf with
  | Some v -> v
  | None ->
      let red = g.family.reduce xf in
      red.oc (g.pieces.(red.piece).Polyeval.eval red.r)

(* ---------- batch kernel ---------- *)

type src_buf = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type dst_buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create_src n : src_buf = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n
let create_dst n : dst_buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* Reusable per-domain scratch for [eval_bits_into].  A chunk runs on one
   domain at a time, and the Parallel pool never runs two chunks
   concurrently on the same domain, so one scratch per domain suffices;
   holding it in DLS means steady-state batches allocate nothing at all
   (growth is amortized over the largest chunk ever seen). *)
type kscratch = {
  mutable kr : floatarray;  (* reduced input per element *)
  mutable kpr : floatarray;  (* polynomial arguments, packed per piece *)
  mutable kv : floatarray;  (* polynomial results, packed per piece *)
  mutable kc : floatarray;  (* log-family compensation addend *)
  mutable kn : int array;  (* exp-family compensation exponent *)
  mutable kp : int array;  (* piece index; -1 = settled in the first pass *)
  mutable kidx : int array;  (* element positions grouped by piece *)
  mutable kcount : int array;  (* per-piece group size *)
  mutable koff : int array;  (* per-piece group start *)
}

let kscratch_key =
  Domain.DLS.new_key (fun () ->
      {
        kr = Float.Array.create 0;
        kpr = Float.Array.create 0;
        kv = Float.Array.create 0;
        kc = Float.Array.create 0;
        kn = [||];
        kp = [||];
        kidx = [||];
        kcount = [||];
        koff = [||];
      })

let ensure_kscratch ks len npieces =
  if Float.Array.length ks.kr < len then begin
    ks.kr <- Float.Array.create len;
    ks.kpr <- Float.Array.create len;
    ks.kv <- Float.Array.create len;
    ks.kc <- Float.Array.create len;
    ks.kn <- Array.make len 0;
    ks.kp <- Array.make len 0;
    ks.kidx <- Array.make len 0
  end;
  if Array.length ks.kcount < npieces then begin
    ks.kcount <- Array.make npieces 0;
    ks.koff <- Array.make npieces 0
  end

(* [eval_bits_into g ~src ~dst ~lo ~hi] is [eval_bits] over the chunk
   [\[lo, hi)] of [src], bit for bit, with zero per-element allocation:

   pass 1  decode each pattern in native ints (no [Softfp.to_float],
           which routes through Rat), probe the sorted special table,
           run the family shortcut inlined from [Reduction.kernel], and
           for surviving elements run [Reduction.reduce_into] through a
           single reused scratch record, recording (piece, r,
           compensation parameter);
   pass 2  group the surviving element positions by piece (counting
           sort — the piece partition is contiguous-ish but not exactly,
           so a gather is needed for piece counts > 1);
   pass 3  per piece, gather the reduced inputs into a packed buffer,
           run the degree-specialized batch evaluator
           ({!Polyeval.eval_into}) once over the whole group, and
           scatter the compensated results.

   The polynomial values and the compensation are the same double
   operations, on the same values, in the same order as the scalar path,
   so the contract "bit-identical to [eval_bits]" is structural; the
   test suite enforces it exhaustively. *)
let eval_bits_into (g : t) ~(src : src_buf) ~(dst : dst_buf) ~lo ~hi =
  if
    lo < 0 || hi < lo
    || hi > Bigarray.Array1.dim src
    || hi > Bigarray.Array1.dim dst
  then invalid_arg "Genlibm.eval_bits_into: chunk outside the buffers";
  let len = hi - lo in
  if len > 0 then begin
    let npieces = Array.length g.pieces in
    let ks = Domain.DLS.get kscratch_key in
    ensure_kscratch ks len npieces;
    let kr = ks.kr and kc = ks.kc and kn = ks.kn and kp = ks.kp in
    let tin = g.cfg.tin in
    let fw = tin.Softfp.prec - 1 in
    let w = Softfp.width tin in
    let fmask = (1 lsl fw) - 1 in
    let emask = (1 lsl tin.Softfp.ebits) - 1 in
    let bias = Softfp.emax tin in
    let sub_e = Softfp.emin tin - fw in
    let hidden = 1 lsl fw in
    let spec_keys = g.spec_keys and spec_vals = g.spec_vals in
    let s = Rlibm.Reduction.scratch () in
    let reduce_into = g.family.Rlibm.Reduction.reduce_into in
    (* Pass 1, specialized per family so the shortcut constants live in
       registers.  The decode mirrors [Softfp.to_float] exactly: the
       mantissa ldexp is exact for every supported format (prec <= 53),
       and out-of-double-range exponents round identically. *)
    (match g.family.Rlibm.Reduction.kernel with
    | Rlibm.Reduction.Exp_kernel ek ->
        let scale = ek.Rlibm.Reduction.ek_scale in
        let hi_cut = ek.Rlibm.Reduction.ek_hi_cut in
        let low_cut = ek.Rlibm.Reduction.ek_lo_cut in
        let near_cut = ek.Rlibm.Reduction.ek_near_cut in
        let v_huge = ek.Rlibm.Reduction.ek_huge in
        let v_tiny = ek.Rlibm.Reduction.ek_tiny in
        let v_above = ek.Rlibm.Reduction.ek_above_one in
        let v_below = ek.Rlibm.Reduction.ek_below_one in
        for o = 0 to len - 1 do
          let b = Int64.to_int (Bigarray.Array1.unsafe_get src (lo + o)) in
          let fr = b land fmask in
          let be = (b lsr fw) land emask in
          let neg = (b lsr (w - 1)) land 1 = 1 in
          if be = emask then begin
            Array.unsafe_set kp o (-1);
            Bigarray.Array1.unsafe_set dst (lo + o)
              (if fr <> 0 then Float.nan
               else if neg then 0.0
               else Float.infinity)
          end
          else begin
            let si = find_special spec_keys b in
            if si >= 0 then begin
              Array.unsafe_set kp o (-1);
              Bigarray.Array1.unsafe_set dst (lo + o)
                (Array.unsafe_get spec_vals si)
            end
            else begin
              let x =
                if be = 0 then
                  if fr = 0 then if neg then -0.0 else 0.0
                  else
                    let v = Float.ldexp (float_of_int fr) sub_e in
                    if neg then -.v else v
                else
                  let v =
                    Float.ldexp (float_of_int (hidden lor fr)) (be - bias - fw)
                  in
                  if neg then -.v else v
              in
              let t = x *. scale in
              if t > hi_cut then begin
                Array.unsafe_set kp o (-1);
                Bigarray.Array1.unsafe_set dst (lo + o) v_huge
              end
              else if t < low_cut then begin
                Array.unsafe_set kp o (-1);
                Bigarray.Array1.unsafe_set dst (lo + o) v_tiny
              end
              else if x <> 0.0 && Float.abs t < near_cut then begin
                Array.unsafe_set kp o (-1);
                Bigarray.Array1.unsafe_set dst (lo + o)
                  (if x > 0.0 then v_above else v_below)
              end
              else begin
                s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- x;
                reduce_into s;
                Array.unsafe_set kp o s.Rlibm.Reduction.spiece;
                Float.Array.unsafe_set kr o
                  s.Rlibm.Reduction.sf.Rlibm.Reduction.sr;
                Array.unsafe_set kn o s.Rlibm.Reduction.sn
              end
            end
          end
        done
    | Rlibm.Reduction.Log_kernel ->
        for o = 0 to len - 1 do
          let b = Int64.to_int (Bigarray.Array1.unsafe_get src (lo + o)) in
          let fr = b land fmask in
          let be = (b lsr fw) land emask in
          let neg = (b lsr (w - 1)) land 1 = 1 in
          if be = emask then begin
            Array.unsafe_set kp o (-1);
            Bigarray.Array1.unsafe_set dst (lo + o)
              (if fr <> 0 then Float.nan
               else if neg then Float.nan
               else Float.infinity)
          end
          else begin
            let si = find_special spec_keys b in
            if si >= 0 then begin
              Array.unsafe_set kp o (-1);
              Bigarray.Array1.unsafe_set dst (lo + o)
                (Array.unsafe_get spec_vals si)
            end
            else if be = 0 && fr = 0 then begin
              (* x = +/-0: the log shortcut's [x = 0.0] branch *)
              Array.unsafe_set kp o (-1);
              Bigarray.Array1.unsafe_set dst (lo + o) Float.neg_infinity
            end
            else if neg then begin
              Array.unsafe_set kp o (-1);
              Bigarray.Array1.unsafe_set dst (lo + o) Float.nan
            end
            else begin
              let x =
                if be = 0 then Float.ldexp (float_of_int fr) sub_e
                else
                  Float.ldexp (float_of_int (hidden lor fr)) (be - bias - fw)
              in
              s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- x;
              reduce_into s;
              Array.unsafe_set kp o s.Rlibm.Reduction.spiece;
              Float.Array.unsafe_set kr o
                s.Rlibm.Reduction.sf.Rlibm.Reduction.sr;
              Float.Array.unsafe_set kc o
                s.Rlibm.Reduction.sf.Rlibm.Reduction.sc
            end
          end
        done);
    (* Pass 2: counting sort of the surviving positions by piece. *)
    let kcount = ks.kcount and koff = ks.koff and kidx = ks.kidx in
    Array.fill kcount 0 npieces 0;
    for o = 0 to len - 1 do
      let p = Array.unsafe_get kp o in
      if p >= 0 then kcount.(p) <- kcount.(p) + 1
    done;
    let acc = ref 0 in
    for p = 0 to npieces - 1 do
      koff.(p) <- !acc;
      acc := !acc + kcount.(p)
    done;
    for o = 0 to len - 1 do
      let p = Array.unsafe_get kp o in
      if p >= 0 then begin
        Array.unsafe_set kidx koff.(p) o;
        koff.(p) <- koff.(p) + 1
      end
    done;
    (* Pass 3: per piece — gather, batch-evaluate, compensate, scatter.
       [koff.(p)] now points one past the group's end. *)
    let kpr = ks.kpr and kv = ks.kv in
    let scheme = g.scheme in
    let is_exp =
      match g.family.Rlibm.Reduction.kernel with
      | Rlibm.Reduction.Exp_kernel _ -> true
      | Rlibm.Reduction.Log_kernel -> false
    in
    for p = 0 to npieces - 1 do
      let m = kcount.(p) in
      if m > 0 then begin
        let base = koff.(p) - m in
        for t = 0 to m - 1 do
          Float.Array.unsafe_set kpr t
            (Float.Array.unsafe_get kr (Array.unsafe_get kidx (base + t)))
        done;
        Polyeval.eval_into scheme g.pieces.(p).Polyeval.data ~src:kpr ~dst:kv
          ~lo:0 ~hi:m;
        if is_exp then
          for t = 0 to m - 1 do
            let o = Array.unsafe_get kidx (base + t) in
            Bigarray.Array1.unsafe_set dst (lo + o)
              (Float.ldexp (Float.Array.unsafe_get kv t) (Array.unsafe_get kn o))
          done
        else
          for t = 0 to m - 1 do
            let o = Array.unsafe_get kidx (base + t) in
            Bigarray.Array1.unsafe_set dst (lo + o)
              (Float.Array.unsafe_get kc o +. Float.Array.unsafe_get kv t)
          done
      end
    done
  end

(* ---------- rounding of results ---------- *)

let round_result = Softfp.round_float

(* ---------- verification ---------- *)

type verify_report = {
  total : int;
  checked : int;  (** finite inputs verified *)
  wrong34 : int;  (** wrong round-to-odd result in the widened target *)
  narrow_checks : int;
  wrong_narrow : int;
      (** wrong result for some narrower representation / rounding mode *)
}

let pp_verify_report fmt (r : verify_report) =
  Format.fprintf fmt
    "%d inputs: %d checked, %d wrong round-to-odd, %d/%d wrong narrowed"
    r.total r.checked r.wrong34 r.wrong_narrow r.narrow_checks

(* Per-input verdict computed by the parallel sweep of [verify]. *)
type verdict = {
  v_checked : bool;
  v_wrong34 : bool;
  v_narrow_checks : int;
  v_wrong_narrow : int;
  v_memo : int64 option;  (* fresh oracle result to install on the driver *)
}

let v_skip =
  {
    v_checked = false;
    v_wrong34 = false;
    v_narrow_checks = 0;
    v_wrong_narrow = 0;
    v_memo = None;
  }

(* [verify g ~inputs] checks, for every finite input:

   1. the double produced by the implementation rounds (round-to-odd, into
      the widened format) to the oracle's round-to-odd result, and
   2. rounding the implementation's double *directly* into every supported
      representation (E+2 .. n total bits) under every standard rounding
      mode agrees with double-rounding the oracle result — i.e. the
      RLibm-All guarantee holds for the generated function.

   The per-input checks fan out across the domain pool: [g.specials] and
   [g.oracle] are only read inside the sweep (fresh oracle results are
   returned in the verdicts and memoized on the driver afterwards, in
   input order), and the report is a sum of per-input counts, so the
   verdict is identical for every job count. *)
let verify ?(narrow = true) (g : t) ~(inputs : int64 array) =
  let tin = g.cfg.tin in
  let tout = Rlibm.Config.tout g.cfg in
  let narrow_fmts =
    List.init
      (Softfp.width tin - (tin.Softfp.ebits + 2) + 1)
      (fun i ->
        Softfp.make_fmt ~ebits:tin.Softfp.ebits ~prec:(2 + i))
  in
  let verdicts =
    Parallel.map_array
      (fun x ->
        if not (Softfp.is_finite tin x) then v_skip
        else begin
          let v = eval_bits g x in
          let xq = Softfp.to_rat tin x in
          if not (Oracle.domain_ok g.family.func xq) then begin
            (* Logarithm of zero / a negative number: the expected results
               are -inf and NaN respectively, in every representation. *)
            let expect_nan = Rat.sign xq < 0 in
            let ok =
              if expect_nan then Float.is_nan v else v = Float.neg_infinity
            in
            { v_skip with v_checked = true; v_wrong34 = not ok }
          end
          else begin
            let y_true, memo =
              match Hashtbl.find_opt g.oracle x with
              | Some y -> (y, None)
              | None ->
                  (* Shortcut-path inputs: the oracle's own range shortcut
                     makes this cheap. *)
                  let y =
                    Oracle.correctly_round g.family.func xq ~fmt:tout
                      ~mode:Softfp.RTO
                  in
                  (y, Some y)
            in
            let y_impl = round_result tout Softfp.RTO v in
            if not (Int64.equal y_impl y_true) then
              { v_skip with v_checked = true; v_wrong34 = true; v_memo = memo }
            else begin
              let nc = ref 0 and wn = ref 0 in
              if narrow then
                List.iter
                  (fun f ->
                    List.iter
                      (fun mode ->
                        incr nc;
                        let direct = round_result f mode v in
                        let doubled =
                          Softfp.narrow ~src:tout ~dst:f mode y_true
                        in
                        if not (Int64.equal direct doubled) then incr wn)
                      Softfp.all_standard_modes)
                  narrow_fmts;
              {
                v_checked = true;
                v_wrong34 = false;
                v_narrow_checks = !nc;
                v_wrong_narrow = !wn;
                v_memo = memo;
              }
            end
          end
        end)
      inputs
  in
  let checked = ref 0 in
  let wrong34 = ref 0 and wrong_narrow = ref 0 and narrow_checks = ref 0 in
  Array.iteri
    (fun i x ->
      let vd = verdicts.(i) in
      if vd.v_checked then incr checked;
      if vd.v_wrong34 then incr wrong34;
      narrow_checks := !narrow_checks + vd.v_narrow_checks;
      wrong_narrow := !wrong_narrow + vd.v_wrong_narrow;
      match vd.v_memo with
      | Some y -> Hashtbl.replace g.oracle x y
      | None -> ())
    inputs;
  {
    total = Array.length inputs;
    checked = !checked;
    wrong34 = !wrong34;
    narrow_checks = !narrow_checks;
    wrong_narrow = !wrong_narrow;
  }

(* ---------- reporting (Table 1 rows) ---------- *)

type table1_row = {
  func : Oracle.func;
  scheme : Polyeval.scheme;
  n_pieces : int;
  degrees : int list;
  n_specials : int;
}

let table1_row (g : t) =
  {
    func = g.family.func;
    scheme = g.scheme;
    n_pieces = Array.length g.pieces;
    degrees = Array.to_list g.degrees;
    n_specials = Rlibm.Generate.n_specials g;
  }

let pp_table1_row fmt (r : table1_row) =
  Format.fprintf fmt "%-6s %-11s pieces=%d degrees=%s specials=%d"
    (Oracle.name r.func)
    (Polyeval.scheme_name r.scheme)
    r.n_pieces
    (String.concat "," (List.map string_of_int r.degrees))
    r.n_specials
