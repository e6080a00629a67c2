(* Development source linter, not installed with the scheduler.

   srclint [DIR] [--json]

   Scans the lib/, bin/ and bench/ subtrees of the checkout at DIR (default
   .) with the srclint rules and prints the findings the way `sunstone
   check` prints its passes. Exits 1 when a rule fires. Findings are
   silenced by inline comments of the form
   (* sunstone-lint: allow SAxxx reason *); a suppression matching nothing
   is reported as a stale warning. *)

open Cmdliner
module D = Sun_analysis.Diagnostic
module J = Sun_serve.Json
module S = Sun_srclint.Srclint

let print_report ~json ~subject ~note diags =
  let errors = D.errors diags in
  if json then
    print_endline
      (J.to_string_pretty
         (J.Obj
            [
              ("v", J.Int Sun_serve.Codec.version);
              ("kind", J.String "check");
              ( "passes",
                J.List
                  [
                    J.Obj
                      [
                        ("pass", J.String "srclint");
                        ("subject", J.String subject);
                        ("note", J.String note);
                        ("diagnostics", J.List (List.map Sun_serve.Codec.encode_diagnostic diags));
                      ];
                  ] );
              ("errors", J.Int (List.length errors));
            ]))
  else begin
    Printf.printf "srclint: %s (%s)\n" subject note;
    if diags <> [] then Format.printf "%a@." D.pp_list diags;
    Printf.printf "check: 1 subject(s), %s\n" (D.summary diags)
  end;
  if errors <> [] then 1 else 0

let run dir json =
  let roots =
    List.filter
      (fun p -> Sys.file_exists p && Sys.is_directory p)
      (List.map (Filename.concat dir) [ "lib"; "bin"; "bench" ])
  in
  if roots = [] then begin
    Printf.eprintf "cannot scan %s: no lib/, bin/ or bench/ subtree\n" dir;
    1
  end
  else begin
    let r = S.scan ~roots () in
    print_report ~json
      ~subject:(String.concat " " (List.map Filename.basename roots))
      ~note:
        (Printf.sprintf "%d files, %d tokens scanned, %d suppressed hit(s)" r.S.files_scanned
           r.S.tokens_seen r.S.suppressed)
      (S.diagnostics r)
  end

let () =
  let dir_arg =
    let doc = "Root of the checkout to scan." in
    Arg.(value & pos 0 string "." & info [] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Emit machine-readable JSON instead of human-readable lines." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "srclint" ~doc:"Scan the source tree with the srclint rules")
          Term.(const run $ dir_arg $ json_arg)))
