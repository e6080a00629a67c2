module D = Sun_analysis.Diagnostic
module Lexer = Sun_srclint.Lexer
module Srcmod = Sun_srclint.Srcmod
module Srclint = Sun_srclint.Srclint

let has_code id diags = List.exists (fun (d : D.t) -> D.code_id d.D.code = id) diags

let count_code id (r : Srclint.report) =
  List.length
    (List.filter (fun (h : Srclint.hit) -> D.code_id h.Srclint.h_diag.D.code = id) r.Srclint.hits)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
  m > 0 && at 0

let token_texts lx =
  Array.to_list (Array.map (fun t -> t.Lexer.t_text) lx.Lexer.tokens)

let has_token lx kind text =
  Array.exists (fun t -> t.Lexer.t_kind = kind && t.Lexer.t_text = text) lx.Lexer.tokens

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lexer_basics () =
  let src =
    "let x = 1 (* c1 (* nested *) still *)\n"
    ^ "let s = \"a (* not a comment *) b\"\n"
    ^ "let q = {|raw \"quoted\" (* nor this *)|}\n"
    ^ "let c = 'a'\n" ^ "let tv : 'a option = None\n"
  in
  let lx = Lexer.lex src in
  Alcotest.(check int) "one comment" 1 (List.length lx.Lexer.comments);
  (match lx.Lexer.comments with
  | [ c ] ->
    Alcotest.(check bool) "nested text kept" true
      (contains c.Lexer.c_text "nested");
    Alcotest.(check int) "comment line" 1 c.Lexer.c_line
  | _ -> Alcotest.fail "expected exactly one comment");
  Alcotest.(check bool) "comment words are not tokens" false
    (List.mem "nested" (token_texts lx));
  Alcotest.(check bool) "string interior is not tokens" false
    (List.mem "not" (token_texts lx));
  Alcotest.(check bool) "quoted-string interior is not tokens" false
    (List.mem "raw" (token_texts lx));
  Alcotest.(check bool) "string literal token" true
    (has_token lx Lexer.String_lit "\"a (* not a comment *) b\"");
  Alcotest.(check bool) "char literal" true (has_token lx Lexer.Char_lit "'a'");
  Alcotest.(check bool) "type variable is not a char" true (has_token lx Lexer.Lident "option");
  Alcotest.(check bool) "uident" true (has_token lx Lexer.Uident "None");
  Alcotest.(check bool) "keyword" true (has_token lx Lexer.Keyword "let")

let test_lexer_comment_literals () =
  (* a comment-closer inside a string inside a comment must not end it *)
  let lx = Lexer.lex "(* \"*)\" still a comment *) let y = 2" in
  Alcotest.(check int) "one comment" 1 (List.length lx.Lexer.comments);
  Alcotest.(check bool) "code after survives" true (has_token lx Lexer.Lident "y");
  Alcotest.(check bool) "comment interior hidden" false (List.mem "still" (token_texts lx));
  (* ... and the same for a char literal holding a double quote *)
  let lx2 = Lexer.lex "(* '\"' *) let z = 3" in
  Alcotest.(check int) "char-in-comment: one comment" 1 (List.length lx2.Lexer.comments);
  Alcotest.(check bool) "char-in-comment: code survives" true
    (has_token lx2 Lexer.Lident "z")

let test_lexer_positions () =
  let lx = Lexer.lex "let a = 1\n  let b = 2" in
  let tok_b =
    Array.to_list lx.Lexer.tokens
    |> List.find_opt (fun t -> t.Lexer.t_text = "b")
  in
  match tok_b with
  | None -> Alcotest.fail "token b missing"
  | Some t ->
    Alcotest.(check int) "line of b" 2 t.Lexer.t_line;
    Alcotest.(check int) "col of b" 6 t.Lexer.t_col

(* ------------------------------------------------------------------ *)
(* Module model                                                         *)
(* ------------------------------------------------------------------ *)

let test_srcmod_resolution () =
  let src =
    "module T = Sun_telemetry.Metrics\n" ^ "let a q = T.count \"x\" q\n"
    ^ "let serve q = a q\n" ^ "let unused () = ()\n"
  in
  let sm = Srcmod.of_source ~path:"probe.ml" src in
  Alcotest.(check bool) "alias resolves" true
    (List.exists
       (fun (o : Srcmod.occurrence) ->
         o.Srcmod.o_path = [ "Sun_telemetry"; "Metrics"; "count" ])
       sm.Srcmod.sm_occurrences);
  let reach =
    List.map
      (fun (_, (b : Srcmod.binding), chain) -> (b.Srcmod.b_name, chain))
      (Srcmod.project_reachable (Srcmod.project_of_files [ sm ]) ~file:0 "serve")
  in
  Alcotest.(check bool) "serve reaches a" true (List.mem_assoc "a" reach);
  Alcotest.(check bool) "serve does not reach unused" false (List.mem_assoc "unused" reach);
  (match List.assoc_opt "a" reach with
  | Some chain -> Alcotest.(check (list string)) "call chain" [ "serve"; "a" ] chain
  | None -> Alcotest.fail "no chain for a");
  match Srcmod.binding_named sm "serve" with
  | Some b -> Alcotest.(check bool) "serve has params" true b.Srcmod.b_params
  | None -> Alcotest.fail "binding serve missing"

(* ------------------------------------------------------------------ *)
(* Suppressions                                                         *)
(* ------------------------------------------------------------------ *)

let with_temp_file content f =
  let path = Filename.temp_file "sun_srclint" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc content);
      f path)

let test_suppression_semantics () =
  let src =
    "let bad1 xs = List.hd xs (* sunstone-lint: allow SA044 same-line form *)\n"
    ^ "(* sunstone-lint: allow SA044 next-line form *)\n" ^ "let bad2 xs = List.tl xs\n"
    ^ "let bad3 xs = Option.get xs\n"
    ^ "let bad4 xs = List.hd xs (* sunstone-lint: allow SA044 *)\n"
  in
  with_temp_file src (fun path ->
      let r = Srclint.scan ~lib_only:false ~roots:[ path ] () in
      Alcotest.(check int) "both suppression forms honoured" 2 r.Srclint.suppressed;
      Alcotest.(check int) "unsuppressed hits remain" 2 (count_code "SA044" r);
      Alcotest.(check bool) "reasonless allow is not a suppression" true
        (List.exists (fun (h : Srclint.hit) -> h.Srclint.h_line = 5) r.Srclint.hits);
      Alcotest.(check (list string)) "no stale warnings" []
        (List.map (fun (d : D.t) -> d.D.message) r.Srclint.stale))

(* ------------------------------------------------------------------ *)
(* SA044 on planted violations                                          *)
(* ------------------------------------------------------------------ *)

let test_planted_violations () =
  let scan lines =
    with_temp_file (String.concat "\n" lines ^ "\n") (fun path ->
        Srclint.scan ~lib_only:false ~roots:[ path ] ())
  in
  let planted =
    [ "(* a comment mentioning Option.get does not count *)"; "let first xs = List.hd xs" ]
  in
  let r = scan planted in
  Alcotest.(check int) "one file scanned" 1 r.Srclint.files_scanned;
  Alcotest.(check int) "the call is flagged, the comment is not" 1 (count_code "SA044" r);
  (* an inline allow on the site suppresses exactly that hit *)
  let r' =
    scan
      [
        "(* sunstone-lint: allow SA044 taking the head is this fixture's whole point *)";
        "let first xs = List.hd xs";
        "let second xs = Option.get xs";
      ]
  in
  Alcotest.(check int) "inline-suppressed hit gone, the other stays" 1 (count_code "SA044" r');
  Alcotest.(check int) "suppression counted" 1 r'.Srclint.suppressed;
  (* outside lib/, production scope leaves library-only rules silent *)
  Alcotest.(check int) "lib-only scope" 0
    (count_code "SA044"
       (with_temp_file "let first xs = List.hd xs\n" (fun path -> Srclint.scan ~roots:[ path ] ())))

(* ------------------------------------------------------------------ *)
(* Fixtures: every rule demonstrably fires                              *)
(* ------------------------------------------------------------------ *)

(* The fixtures and the production tree live in the source checkout, found
   by walking up from the test's working directory. A missing checkout or
   fixture is a failure, never a silent pass: these cases are the only gate
   that each rule fires on its fixture. *)
let source_root () =
  let rec find d =
    if Sys.file_exists (Filename.concat d "dune-project") then d
    else
      let parent = Filename.dirname d in
      if parent = d then Alcotest.failf "no dune-project above %s" (Sys.getcwd ())
      else find parent
  in
  find (Sys.getcwd ())

let fixture_path name =
  let path = Filename.concat (source_root ()) (Filename.concat "test/fixtures/srclint" name) in
  if not (Sys.file_exists path) then Alcotest.failf "fixture %s is missing" path;
  path

let with_fixture name f = f (Srclint.scan ~lib_only:false ~roots:[ fixture_path name ] ())

let test_fixture_sa044 () =
  with_fixture "sa044_partial.ml" (fun r ->
      Alcotest.(check int) "List.hd, failwith and assert false; not the comment or string" 3
        (count_code "SA044" r))

let test_fixture_sa064 () =
  with_fixture "sa064_swallow.ml" (fun r ->
      Alcotest.(check int) "try-swallow flagged, match wildcards not" 1
        (count_code "SA064" r))

let test_fixture_sa065 () =
  with_fixture "sa065_stale.ml" (fun r ->
      Alcotest.(check int) "used suppression silences SA044" 0 (count_code "SA044" r);
      Alcotest.(check int) "one suppressed hit" 1 r.Srclint.suppressed;
      Alcotest.(check int) "one stale warning" 1 (List.length r.Srclint.stale);
      Alcotest.(check bool) "stale warning is SA065" true (has_code "SA065" r.Srclint.stale))

let hit_with_code id (r : Srclint.report) =
  List.find_opt
    (fun (h : Srclint.hit) -> D.code_id h.Srclint.h_diag.D.code = id)
    r.Srclint.hits

let test_fixture_sa070 () =
  with_fixture "sa070_hot.ml" (fun r ->
      Alcotest.(check int) "one hot allocation flagged" 1 (count_code "SA070" r);
      match hit_with_code "SA070" r with
      | Some h ->
        (* golden: the diagnostic renders the full cross-binding call chain
           (the message is prefixed by the fixture's absolute path) *)
        let golden =
          "array literal allocates on the hot path (root score_hot, via score_hot -> \
           helper -> build_row)"
        in
        let msg = h.Srclint.h_diag.D.message in
        let ok =
          String.length msg >= String.length golden
          && String.sub msg (String.length msg - String.length golden) (String.length golden)
             = golden
        in
        if not ok then
          Alcotest.failf "chain rendering: %S does not end with %S" msg golden;
        Alcotest.(check int) "flagged at the allocation site" 10 h.Srclint.h_line
      | None -> Alcotest.fail "SA070 hit missing")

let test_fixture_sa073 () =
  with_fixture "sa073_unresolved.ml" (fun r ->
      Alcotest.(check int) "unresolved hot annotation flagged" 1 (count_code "SA073" r))

let test_fixture_sa074 () =
  with_fixture "sa074_stale.ml" (fun r ->
      Alcotest.(check int) "stale hot annotation flagged" 1 (count_code "SA074" r);
      match hit_with_code "SA074" r with
      | Some h ->
        Alcotest.(check bool) "explains the function requirement" true
          (contains h.Srclint.h_diag.D.message "must be functions")
      | None -> Alcotest.fail "SA074 hit missing")

(* The same root file is clean under the per-file view (a scan of just
   that file) and dirty under the whole-program view (a scan of the
   directory, which resolves the dotted call into the sibling module). *)
let test_cross_module_sa070 () =
  with_fixture "sa070_cross/ticker.ml" (fun r ->
      Alcotest.(check int) "single-file scan misses the allocation" 0
        (count_code "SA070" r));
  with_fixture "sa070_cross" (fun r ->
      Alcotest.(check int) "directory scan resolves Gen.step" 1 (count_code "SA070" r);
      match hit_with_code "SA070" r with
      | Some h ->
        Alcotest.(check bool) "chain crosses the module boundary" true
          (contains h.Srclint.h_diag.D.message "tick_hot -> Gen.step")
      | None -> Alcotest.fail "SA070 hit missing")

(* ------------------------------------------------------------------ *)
(* check --list-rules stays in sync with the diagnostic code table      *)
(* ------------------------------------------------------------------ *)

let test_rule_table_sync () =
  let table = D.rule_table () in
  Alcotest.(check int) "one row per diagnostic code" (List.length D.all_codes)
    (List.length table);
  List.iter2
    (fun code (id, sev, summary, scope) ->
      Alcotest.(check string) "row order matches all_codes" (D.code_id code) id;
      Alcotest.(check bool) (id ^ " has a severity") true
        (List.mem sev [ "error"; "warning"; "info" ]);
      Alcotest.(check bool) (id ^ " has a summary") true (String.length summary > 0);
      Alcotest.(check bool) (id ^ " has a scope") true (String.length scope > 0))
    D.all_codes table;
  (* The rule set and the table cannot drift: every source code of the
     table fires on some fixture, and every code a fixture yields is a
     source code of the table. *)
  let src_ids =
    List.filter_map
      (fun (id, _, _, scope) ->
        if String.length scope >= 4 && String.sub scope 0 4 = "src:" then Some id else None)
      table
  in
  let r = Srclint.scan ~lib_only:false ~roots:[ fixture_path "" ] () in
  let fixture_ids =
    List.sort_uniq compare (List.map (fun (d : D.t) -> D.code_id d.D.code) (Srclint.diagnostics r))
  in
  Alcotest.(check (list string)) "source codes no fixture fires" []
    (List.filter (fun id -> not (List.mem id fixture_ids)) src_ids);
  Alcotest.(check (list string)) "fixture codes outside the table's source rows" []
    (List.filter (fun id -> not (List.mem id src_ids)) fixture_ids)

(* ------------------------------------------------------------------ *)
(* Lexer token extents: monotone, non-overlapping, faithful to source   *)
(* ------------------------------------------------------------------ *)

(* OCaml-ish source soup: random concatenation of fragments that exercise
   every token class, including the pathological ones (strings holding
   comment closers, quoted strings, chars vs type variables). *)
let source_gen =
  let fragment =
    QCheck2.Gen.oneofl
      [
        "let x = 1 "; "module M = Map "; "(* a (* nested *) comment *) "; "\"str *) \\\" q\" ";
        "{|raw \"x\" (* y *)|} "; "'c' "; "'\\n' "; "type 'a t = 'a list "; "[| 1; 2 |] ";
        "f 3.14e2 0x1f "; "a.(i) <- b.{j} "; "let g = fun (a, b) -> a :: [ b ] ";
        "match xs with [] -> 0 | y :: _ -> y "; "x + y * z mod w "; "s ^ \"t\" @ u ";
        "\n"; "  "; "(* unterminated string in comment \" still fine *) ";
      ]
  in
  QCheck2.Gen.(map (String.concat "") (list_size (int_range 0 25) fragment))

let lexer_extents_prop =
  QCheck2.Test.make ~name:"lexer token extents are monotone and faithful" ~count:500
    source_gen (fun src ->
      let lx = Lexer.lex src in
      let toks = lx.Lexer.tokens in
      let n = String.length src in
      Array.iteri
        (fun i t ->
          if not (0 <= t.Lexer.t_start && t.Lexer.t_start < t.Lexer.t_end && t.Lexer.t_end <= n)
          then
            QCheck2.Test.fail_reportf "token %d %S: extent [%d,%d) outside source of %d" i
              t.Lexer.t_text t.Lexer.t_start t.Lexer.t_end n;
          let sub = String.sub src t.Lexer.t_start (t.Lexer.t_end - t.Lexer.t_start) in
          if sub <> t.Lexer.t_text then
            QCheck2.Test.fail_reportf "token %d: text %S but source slice %S" i
              t.Lexer.t_text sub;
          if i > 0 && toks.(i - 1).Lexer.t_end > t.Lexer.t_start then
            QCheck2.Test.fail_reportf "tokens %d and %d overlap: [.., %d) then [%d, ..)"
              (i - 1) i
              toks.(i - 1).Lexer.t_end
              t.Lexer.t_start)
        toks;
      true)

(* ------------------------------------------------------------------ *)
(* The shipping tree satisfies the full production rule set             *)
(* ------------------------------------------------------------------ *)

let test_tree_clean () =
  let root = source_root () in
  let roots = List.map (Filename.concat root) [ "lib"; "bin"; "bench" ] in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Alcotest.failf "source subtree %s is missing" d)
    roots;
  let r = Srclint.scan ~roots () in
  Alcotest.(check (list string)) "production scan is clean" []
    (List.map Srclint.hit_string r.Srclint.hits);
  Alcotest.(check (list string)) "no stale suppressions" []
    (List.map (fun (d : D.t) -> d.D.message) r.Srclint.stale);
  Alcotest.(check bool) "scanned the whole tree" true (r.Srclint.files_scanned > 40)

let test_walk_single_file () =
  with_temp_file "let fine x = x\n" (fun path ->
      Alcotest.(check (list string)) "file root is itself" [ path ] (Srclint.walk path));
  Alcotest.(check (list string)) "missing root is empty" []
    (Srclint.walk "definitely/not/a/path")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sun_srclint"
    [
      ( "lexer",
        [
          Alcotest.test_case "comments, strings, chars" `Quick test_lexer_basics;
          Alcotest.test_case "literals inside comments" `Quick test_lexer_comment_literals;
          Alcotest.test_case "token positions" `Quick test_lexer_positions;
        ] );
      ( "srcmod",
        [ Alcotest.test_case "aliases and reachability" `Quick test_srcmod_resolution ] );
      ( "suppress",
        [
          Alcotest.test_case "inline forms and reasons" `Quick test_suppression_semantics;
        ] );
      ( "forksafe",
        [ Alcotest.test_case "planted violations" `Quick test_planted_violations ] );
      ( "fixtures",
        [
          Alcotest.test_case "SA044 partial functions" `Quick test_fixture_sa044;
          Alcotest.test_case "SA064 exception swallowing" `Quick test_fixture_sa064;
          Alcotest.test_case "SA065 stale suppression" `Quick test_fixture_sa065;
          Alcotest.test_case "SA070 hot allocation + chain golden" `Quick test_fixture_sa070;
          Alcotest.test_case "SA073 unresolved hot annotation" `Quick test_fixture_sa073;
          Alcotest.test_case "SA074 stale hot annotation" `Quick test_fixture_sa074;
          Alcotest.test_case "SA070 cross-module pair" `Quick test_cross_module_sa070;
        ] );
      ( "rules",
        [ Alcotest.test_case "--list-rules table in sync" `Quick test_rule_table_sync ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false lexer_extents_prop ] );
      ( "tree",
        [
          Alcotest.test_case "production scan is clean" `Quick test_tree_clean;
          Alcotest.test_case "walk accepts file roots" `Quick test_walk_single_file;
        ] );
    ]
