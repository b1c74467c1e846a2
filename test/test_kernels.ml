(* Bit-identity of the zero-allocation batch layer against the scalar
   evaluation path: Genlibm.eval_bits_into vs eval_bits over every bit
   pattern of a mini format (NaN, infinities, zeros, subnormals,
   specials and shortcut inputs included) for every scheme on both
   families, Serve.eval_batch_into at -j 1 and -j 4, the allocation-free
   reduction scratch against the allocating wrapper, and seeded sampled
   binary32 batches (multi-piece counting-sort path). *)

let tiny_cfg = Test_util.tiny_cfg
let tiny = tiny_cfg.Rlibm.Config.tin

(* Generation is expensive and several tests share a function; memoize
   for the whole suite run (same idiom as test_genlibm). *)
let gen_cache :
    ( Oracle.func * Polyeval.scheme,
      (Rlibm.Generate.generated, Diag.Error.t) result )
    Hashtbl.t =
  Hashtbl.create 16

let generate_ok func scheme =
  let r =
    match Hashtbl.find_opt gen_cache (func, scheme) with
    | Some r -> r
    | None ->
        let r = Test_util.generate ~cfg:tiny_cfg ~scheme func in
        Hashtbl.replace gen_cache (func, scheme) r;
        r
  in
  match r with
  | Ok g -> g
  | Error msg ->
      Alcotest.failf "%s/%s generation failed: %s" (Oracle.name func)
        (Polyeval.scheme_name scheme)
        (Diag.Error.to_string msg)

(* Every bit pattern of the format — the kernel must agree on the
   non-finite and special rows too, not just the polynomial path. *)
let all_patterns fmt =
  Array.init (1 lsl Softfp.width fmt) Int64.of_int

let kernel_bits g patterns =
  let n = Array.length patterns in
  let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
  Array.iteri (fun i x -> Bigarray.Array1.set src i x) patterns;
  Genlibm.eval_bits_into g ~src ~dst ~lo:0 ~hi:n;
  Array.init n (fun i -> Int64.bits_of_float (Bigarray.Array1.get dst i))

let check_bit_identity name g patterns =
  let kb = kernel_bits g patterns in
  Array.iteri
    (fun i x ->
      let s = Int64.bits_of_float (Genlibm.eval_bits g x) in
      if not (Int64.equal s kb.(i)) then
        Alcotest.failf "%s: input %Lx: scalar %Lx, kernel %Lx" name x s kb.(i))
    patterns

(* ---------- exhaustive kernel = scalar, per (func, scheme) ---------- *)

(* exp2/log2 cover every scheme; the remaining four functions ride on
   one scheme each (the full grid at this format is generation-bound,
   and the kernel branches under test depend on family + scheme, both
   of which this set covers completely). *)
let combos =
  List.map (fun s -> (Oracle.Exp2, s)) Polyeval.all_schemes
  @ List.map (fun s -> (Oracle.Log2, s)) Polyeval.all_schemes
  @ [
      (Oracle.Exp, Polyeval.EstrinFma);
      (Oracle.Exp10, Polyeval.EstrinFma);
      (Oracle.Log, Polyeval.EstrinFma);
      (Oracle.Log10, Polyeval.EstrinFma);
    ]

let test_exhaustive func scheme () =
  let g = generate_ok func scheme in
  let name =
    Printf.sprintf "%s/%s" (Oracle.name func) (Polyeval.scheme_name scheme)
  in
  let patterns = all_patterns tiny in
  check_bit_identity name g patterns;
  (* eval_float is the same shortcut/reduce/poly path, minus the special
     table: it must agree with eval_bits on every non-special finite
     input. *)
  Array.iter
    (fun x ->
      if
        Softfp.is_finite tiny x
        && not (Hashtbl.mem g.Rlibm.Generate.specials x)
      then begin
        let b = Int64.bits_of_float (Genlibm.eval_bits g x) in
        let f =
          Int64.bits_of_float (Genlibm.eval_float g (Softfp.to_float tiny x))
        in
        if not (Int64.equal b f) then
          Alcotest.failf "%s: input %Lx: eval_bits %Lx, eval_float %Lx" name x
            b f
      end)
    patterns

(* ---------- chunk windows ---------- *)

let test_window_untouched () =
  let g = generate_ok Oracle.Log2 Polyeval.EstrinFma in
  let patterns = all_patterns tiny in
  let n = Array.length patterns in
  let src = Genlibm.create_src n and dst = Genlibm.create_dst n in
  Array.iteri (fun i x -> Bigarray.Array1.set src i x) patterns;
  Bigarray.Array1.fill dst 42.0;
  let lo = n / 3 and hi = 2 * n / 3 in
  Genlibm.eval_bits_into g ~src ~dst ~lo ~hi;
  for i = 0 to n - 1 do
    if i < lo || i >= hi then begin
      if Bigarray.Array1.get dst i <> 42.0 then
        Alcotest.failf "slot %d outside [%d, %d) was clobbered" i lo hi
    end
    else begin
      let s = Int64.bits_of_float (Genlibm.eval_bits g patterns.(i)) in
      let k = Int64.bits_of_float (Bigarray.Array1.get dst i) in
      if not (Int64.equal s k) then
        Alcotest.failf "windowed slot %d: scalar %Lx, kernel %Lx" i s k
    end
  done

let test_bounds_rejected () =
  let g = generate_ok Oracle.Log2 Polyeval.EstrinFma in
  let src = Genlibm.create_src 8 and dst = Genlibm.create_dst 8 in
  let oob lo hi () = Genlibm.eval_bits_into g ~src ~dst ~lo ~hi in
  let exn = Invalid_argument "Genlibm.eval_bits_into: chunk outside the buffers" in
  Alcotest.check_raises "negative lo" exn (oob (-1) 4);
  Alcotest.check_raises "hi past src" exn (oob 0 9);
  Alcotest.check_raises "hi below lo" exn (oob 5 4);
  let short = Genlibm.create_dst 4 in
  Alcotest.check_raises "hi past dst" exn (fun () ->
      Genlibm.eval_bits_into g ~src ~dst:short ~lo:0 ~hi:8)

(* ---------- serve batch kernels at -j 1 and -j 4 ---------- *)

let with_jobs j f =
  let prev = Parallel.jobs () in
  Parallel.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs prev) f

let test_serve_batch_into_jobs () =
  Test_util.in_fresh_dir (fun _ ->
      let specs =
        [
          (Oracle.Exp2, Polyeval.EstrinFma, tiny_cfg);
          (Oracle.Log2, Polyeval.Horner, tiny_cfg);
        ]
      in
      let snap =
        match Serve.build specs with
        | Ok t -> t
        | Error err ->
            Alcotest.failf "snapshot build failed: %s"
              (Diag.Error.to_string err)
      in
      let inputs = all_patterns tiny in
      let n = Array.length inputs in
      List.iter
        (fun func ->
          let e =
            match Serve.find snap func with
            | Some e -> e
            | None -> Alcotest.failf "%s missing" (Oracle.name func)
          in
          let scalar =
            Array.map
              (fun x -> Int64.bits_of_float (Genlibm.eval_bits e.Serve.e_impl x))
              inputs
          in
          List.iter
            (fun j ->
              with_jobs j (fun () ->
                  let src = Genlibm.create_src n in
                  let dst = Genlibm.create_dst n in
                  Array.iteri (fun i x -> Bigarray.Array1.set src i x) inputs;
                  Serve.eval_batch_into snap func ~src ~dst;
                  Array.iteri
                    (fun i s ->
                      let k = Int64.bits_of_float (Bigarray.Array1.get dst i) in
                      if not (Int64.equal s k) then
                        Alcotest.failf "%s -j %d: input %Lx: scalar %Lx, batch %Lx"
                          (Oracle.name func) j inputs.(i) s k)
                    scalar))
            [ 1; 4 ])
        [ Oracle.Exp2; Oracle.Log2 ])

(* ---------- allocation-free reduction = allocating wrapper ---------- *)

let test_reduce_into_matches_reduce () =
  let out_fmt = Rlibm.Config.tout tiny_cfg in
  List.iter
    (fun func ->
      let fam = Rlibm.Reduction.make func ~out_fmt ~pieces:2 ~table_bits:3 in
      let s = Rlibm.Reduction.scratch () in
      Array.iter
        (fun b ->
          if Softfp.is_finite tiny b then begin
            let x = Softfp.to_float tiny b in
            if fam.Rlibm.Reduction.shortcut x = None then begin
              let red = fam.Rlibm.Reduction.reduce x in
              s.Rlibm.Reduction.sf.Rlibm.Reduction.sx <- x;
              fam.Rlibm.Reduction.reduce_into s;
              if
                not
                  (Int64.equal
                     (Int64.bits_of_float red.Rlibm.Reduction.r)
                     (Int64.bits_of_float s.Rlibm.Reduction.sf.Rlibm.Reduction.sr))
              then Alcotest.failf "%s: r mismatch at %h" (Oracle.name func) x;
              Alcotest.(check int)
                (Printf.sprintf "%s piece at %h" (Oracle.name func) x)
                red.Rlibm.Reduction.piece s.Rlibm.Reduction.spiece;
              (* the inline compensation of the kernel form must be the
                 same double operation as the oc closure *)
              let v = 1.5 in
              let oc_scalar = red.Rlibm.Reduction.oc v in
              let oc_kernel =
                match fam.Rlibm.Reduction.kernel with
                | Rlibm.Reduction.Exp_kernel _ ->
                    Float.ldexp v s.Rlibm.Reduction.sn
                | Rlibm.Reduction.Log_kernel ->
                    s.Rlibm.Reduction.sf.Rlibm.Reduction.sc +. v
              in
              if
                not
                  (Int64.equal
                     (Int64.bits_of_float oc_scalar)
                     (Int64.bits_of_float oc_kernel))
              then Alcotest.failf "%s: oc mismatch at %h" (Oracle.name func) x
            end
          end)
        (all_patterns tiny))
    [ Oracle.Exp2; Oracle.Exp10; Oracle.Log2; Oracle.Log10 ]

(* ---------- sampled binary32 (multi-piece, wide exponents) ---------- *)

let test_binary32_sampled func =
  let cfg =
    {
      (Rlibm.Config.float32_for func) with
      Rlibm.Config.inputs = Rlibm.Config.Sampled { count = 250; seed = 11 };
    }
  in
  match Test_util.generate ~cfg ~scheme:Polyeval.EstrinFma func with
  | Error msg ->
      Alcotest.failf "%s binary32 sampled generation failed: %s"
        (Oracle.name func)
        (Diag.Error.to_string msg)
  | Ok g ->
      let name = Printf.sprintf "%s/binary32" (Oracle.name func) in
      check_bit_identity (name ^ " sampled") g (Pipeline.inputs_of cfg);
      (* a fresh seeded batch over the whole 32-bit pattern space:
         non-finite rows, patterns the generator never saw, every
         piece of the piecewise polynomial *)
      let st = Random.State.make [| 2026 |] in
      let batch =
        Array.init 4096 (fun _ ->
            Random.State.int64 st (Int64.shift_left 1L 32))
      in
      check_bit_identity (name ^ " random batch") g batch

let suite =
  List.map
    (fun (func, scheme) ->
      ( Printf.sprintf "%s/%s kernel = scalar (exhaustive)" (Oracle.name func)
          (Polyeval.scheme_name scheme),
        `Slow,
        test_exhaustive func scheme ))
    combos
  @ [
      ("chunk window leaves other slots untouched", `Slow, test_window_untouched);
      ("chunk bounds rejected", `Slow, test_bounds_rejected);
      ("serve batch kernel at -j 1 and -j 4", `Slow, test_serve_batch_into_jobs);
      ( "reduce_into = reduce (all families)",
        `Quick,
        test_reduce_into_matches_reduce );
      ( "exp2/binary32 sampled batches",
        `Slow,
        fun () -> test_binary32_sampled Oracle.Exp2 );
      ( "log2/binary32 sampled batches",
        `Slow,
        fun () -> test_binary32_sampled Oracle.Log2 );
    ]
