(* Regenerate the committed codegen golden snapshots:

     dune exec test/gen_golden.exe [DIR]     (default DIR: test/golden)

   Run after an intentional codegen change, review the diff, commit.
   Generation is deterministic (seeded RNG, fixed knobs), so the output
   is a pure function of [Test_util.golden_cases], the case list
   test_codegen.ml checks. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  List.iter
    (fun (name, func, scheme, cfg) ->
      match Test_util.generate ~cfg ~scheme func with
      | Error msg ->
          Printf.eprintf "%s: generation failed: %s\n" name
            (Diag.Error.to_string msg);
          exit 1
      | Ok g ->
          let emitted = "rlibm_" ^ Oracle.name func in
          let write ext src =
            let path = Filename.concat dir (name ^ ext ^ ".golden") in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc src);
            Printf.printf "wrote %s\n" path
          in
          write ".c" (Codegen.to_c g ~name:emitted);
          write ".ml" (Codegen.to_ocaml g ~name:emitted))
    Test_util.golden_cases
