(* Shared envelope for every BENCH_*.json artifact the harness emits.

   All bench JSON files carry the same header fields — schema_version,
   kind, timestamp, commit, host, jobs, input_bits — so files from
   different PRs and different modes (polynomial ns/call, staged
   generation, LP statistics) form one comparable trajectory; only the
   body under the kind-specific key differs.  Bump [schema_version]
   whenever a header field changes meaning.  The retired kinds
   serve-throughput and oracle-sharding survive only in committed
   BENCH_*.json history. *)

let schema_version = 1

let first_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then None else Some line
  with Unix.Unix_error _ | Sys_error _ -> None

let or_unknown = function Some s -> s | None -> "unknown"

(* The commit the numbers were measured at; "unknown" outside a git
   checkout (e.g. an exported tarball). *)
let commit () =
  or_unknown (first_line "git rev-parse --short HEAD 2>/dev/null")

(* [write_rows path ~kind ~jobs ~input_bits ?fields ~key ~what row xs]
   writes the envelope, then the kind-specific body: [fields] (each
   value pre-rendered as JSON), then ["key": [...]] with one [row x]
   object per line and commas between them.  A one-line note on stderr
   says how many rows of [what] were written. *)
let write_rows path ~kind ~jobs ~input_bits ?(fields = []) ~key ~what row
    xs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"schema_version\": %d,\n\
        \  \"kind\": %S,\n\
        \  \"timestamp\": %.0f,\n\
        \  \"commit\": %S,\n"
        schema_version kind (Unix.time ()) (commit ());
      Printf.fprintf oc
        "  \"host\": {\"hostname\": %S, \"os\": %S, \"arch\": %S, \
         \"cores\": %d, \"ocaml\": %S},\n"
        (or_unknown (try Some (Unix.gethostname ()) with Unix.Unix_error _ -> None))
        (or_unknown (first_line "uname -s 2>/dev/null"))
        (or_unknown (first_line "uname -m 2>/dev/null"))
        (Domain.recommended_domain_count ())
        Sys.ocaml_version;
      Printf.fprintf oc "  \"jobs\": %d,\n  \"input_bits\": %d,\n" jobs
        input_bits;
      List.iter (fun (k, v) -> Printf.fprintf oc "  %S: %s,\n" k v) fields;
      Printf.fprintf oc "  %S: [\n" key;
      output_string oc
        (String.concat ",\n" (List.map (fun x -> "    " ^ row x) xs));
      if xs <> [] then output_char oc '\n';
      output_string oc "  ]\n}\n");
  Printf.eprintf "wrote %s (%d %s)\n%!" path (List.length xs) what
