(* The native layer: every served entry emitted with Codegen.to_c,
   compiled with native_driver.c by plain `cc -O2 -mfma`, and run over
   the same batches as the OCaml serving loop. *)

let entry_symbol k = Printf.sprintf "bench_entry%d" k

(* Run [prog args] with its temporary files kept in [dir]; stdout goes
   to [stdout_to] when given.  Waits for the child. *)
let run ?stdout_to ~dir prog args =
  let env =
    Array.append
      [| "TMPDIR=" ^ dir |]
      (Array.of_list
         (List.filter
            (fun s -> not (String.starts_with ~prefix:"TMPDIR=" s))
            (Array.to_list (Unix.environment ()))))
  in
  let out =
    match stdout_to with
    | Some path -> Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
    | None -> Unix.dup Unix.stderr
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          env Unix.stdin out Unix.stderr)
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed" prog (String.concat " " args))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Emit every entry, compile one driver binary; returns its path. *)
let build ~dir ~driver_src (impls : Genlibm.t list) =
  let units =
    List.mapi
      (fun k g ->
        let path = Filename.concat dir (entry_symbol k ^ ".c") in
        write_file path (Codegen.to_c g ~name:(entry_symbol k));
        path)
      impls
  in
  let exe = Filename.concat dir "native_driver" in
  run ~dir "cc"
    ([ "-O2"; "-mfma"; "-o"; exe; driver_src ] @ units @ [ "-lm" ]);
  exe

(* FMA instructions in each entry's function body, from objdump -d. *)
let fma_insns ~dir exe n_entries =
  let listing = Filename.concat dir "native_driver.dis" in
  run ~stdout_to:listing ~dir "objdump" [ "-d"; "--no-show-raw-insn"; exe ];
  let counts = Array.make n_entries 0 in
  let current = ref (-1) in
  let is_fma line =
    String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
    |> List.exists (fun w ->
           List.exists
             (fun prefix -> String.starts_with ~prefix w)
             [ "vfmadd"; "vfmsub"; "vfnmadd"; "vfnmsub" ])
  in
  List.iter
    (fun line ->
      (* Function headers look like "0000000000001234 <bench_entry0>:". *)
      match String.index_opt line '<' with
      | Some i when String.ends_with ~suffix:">:" line ->
          let name = String.sub line (i + 1) (String.length line - i - 3) in
          current := -1;
          for k = 0 to n_entries - 1 do
            if name = entry_symbol k then current := k
          done
      | _ -> if !current >= 0 && is_fma line then counts.(!current) <- counts.(!current) + 1)
    (String.split_on_char '\n' (read_file listing));
  counts

type result = {
  ns : int array;  (** per batch *)
  first : float array array;  (** per entry, per pattern *)
  seen : int array array;  (** per entry, per pattern *)
  mismatches : int;
}

let put_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

(* Run [iters] batches of the driver over [pool] (patterns decoded by
   [decode]).  Entry [i mod entries] runs on batch [i mod k]. *)
let run_batches ~dir exe ~entries ~decode ~(pool : Genlibm.src_buf array) ~iters =
  let n = Bigarray.Array1.dim pool.(0) and p = Array.length decode in
  let b = Buffer.create (32 + (8 * p) + (2 * n * Array.length pool)) in
  List.iter (put_i64 b) [ entries; n; Array.length pool; p ];
  Array.iter (fun d -> Buffer.add_int64_le b (Int64.bits_of_float d)) decode;
  Array.iter
    (fun src ->
      for j = 0 to n - 1 do
        Buffer.add_uint16_le b (Int64.to_int (Bigarray.Array1.get src j))
      done)
    pool;
  let input = Filename.concat dir "native_in.bin"
  and output = Filename.concat dir "native_out.bin" in
  write_file input (Buffer.contents b);
  run ~dir exe [ input; output; string_of_int iters ];
  let s = read_file output in
  let i64 off = Int64.to_int (String.get_int64_le s off) in
  let ns = Array.init iters (fun i -> i64 (8 * i)) in
  let base = 8 * iters in
  let first =
    Array.init entries (fun e ->
        Array.init p (fun x ->
            Int64.float_of_bits (String.get_int64_le s (base + (8 * ((e * p) + x))))))
  in
  let base = base + (8 * entries * p) in
  let seen =
    Array.init entries (fun e -> Array.init p (fun x -> i64 (base + (8 * ((e * p) + x)))))
  in
  let mismatches = i64 (base + (8 * entries * p)) in
  { ns; first; seen; mismatches }
