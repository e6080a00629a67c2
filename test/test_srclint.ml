module D = Sun_analysis.Diagnostic
module Lexer = Sun_analysis.Lexer
module Srcmod = Sun_analysis.Srcmod
module Rules = Sun_analysis.Rules
module Srclint = Sun_analysis.Srclint

let has_code id diags = List.exists (fun (d : D.t) -> D.code_id d.D.code = id) diags

let count_code id (r : Srclint.report) =
  List.length
    (List.filter (fun (h : Srclint.hit) -> D.code_id h.Srclint.h_diag.D.code = id) r.Srclint.hits)

let unscoped_rules () = Rules.unscoped (Rules.default_rules ())

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
      (Rules.contains_sub c.Lexer.c_text "nested");
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
      let r = Srclint.scan ~rules:(unscoped_rules ()) ~roots:[ path ] () in
      Alcotest.(check int) "both suppression forms honoured" 2 r.Srclint.suppressed;
      Alcotest.(check int) "unsuppressed hits remain" 2 (count_code "SA044" r);
      Alcotest.(check bool) "reasonless allow is not a suppression" true
        (List.exists (fun (h : Srclint.hit) -> h.Srclint.h_line = 5) r.Srclint.hits);
      Alcotest.(check (list string)) "no stale warnings" []
        (List.map (fun (d : D.t) -> d.D.message) r.Srclint.stale))

(* ------------------------------------------------------------------ *)
(* Fork-hygiene rules (SA040-SA044) on planted violations               *)
(* ------------------------------------------------------------------ *)

let test_forksafe_violations () =
  let planted =
    [
      "let table = Hashtbl.create 17";
      "let first xs = List.hd xs";
      "let log msg = print_endline msg";
      "(* a comment mentioning Unix.fork does not count *)";
    ]
  in
  let scan lines =
    with_temp_file (String.concat "\n" lines ^ "\n") (fun path ->
        Srclint.scan ~rules:(Rules.forksafe_rules ()) ~roots:[ path ] ())
  in
  let r = scan (planted @ [ "let snapshot v = Marshal.to_string v []" ]) in
  Alcotest.(check int) "one file scanned" 1 r.Srclint.files_scanned;
  let diags = Srclint.diagnostics r in
  Alcotest.(check bool) "toplevel mutable (SA043)" true (has_code "SA043" diags);
  Alcotest.(check bool) "partial function (SA044)" true (has_code "SA044" diags);
  Alcotest.(check bool) "shared channel write (SA042)" true (has_code "SA042" diags);
  Alcotest.(check bool) "marshal outside pool (SA040)" true (has_code "SA040" diags);
  Alcotest.(check bool) "commented fork is ignored" false (has_code "SA041" diags);
  (* an inline allow on the Marshal site suppresses exactly that hit *)
  let r' =
    scan
      (planted
      @ [
          "(* sunstone-lint: allow SA040 snapshotting is this fixture's whole point *)";
          "let snapshot v = Marshal.to_string v []";
        ])
  in
  Alcotest.(check bool) "inline-suppressed hit gone" false
    (has_code "SA040" (Srclint.diagnostics r'));
  Alcotest.(check int) "suppression counted" 1 r'.Srclint.suppressed

(* ------------------------------------------------------------------ *)
(* Fixtures: every daemon-era rule demonstrably fires                   *)
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

let with_fixture name f =
  f (Srclint.scan ~rules:(unscoped_rules ()) ~roots:[ fixture_path name ] ())

let test_fixture_sa060 () =
  with_fixture "sa060_block.ml" (fun r ->
      Alcotest.(check int) "one blocking call flagged" 1 (count_code "SA060" r);
      match
        List.find_opt
          (fun (h : Srclint.hit) -> D.code_id h.Srclint.h_diag.D.code = "SA060")
          r.Srclint.hits
      with
      | Some h ->
        Alcotest.(check bool) "message names the call chain" true
          (Rules.contains_sub h.Srclint.h_diag.D.message "serve -> helper")
      | None -> Alcotest.fail "SA060 hit missing")

let test_fixture_sa061 () =
  with_fixture "sa061_fd.ml" (fun r ->
      Alcotest.(check int) "one leak flagged" 1 (count_code "SA061" r);
      match
        List.find_opt
          (fun (h : Srclint.hit) -> D.code_id h.Srclint.h_diag.D.code = "SA061")
          r.Srclint.hits
      with
      | Some h ->
        Alcotest.(check bool) "names the leaked binding" true
          (Rules.contains_sub h.Srclint.h_diag.D.message "fd_leaked")
      | None -> Alcotest.fail "SA061 hit missing")

let test_fixture_sa062 () =
  with_fixture "sa062_signal.ml" (fun r ->
      Alcotest.(check int) "only the busy handler flagged" 1 (count_code "SA062" r))

let test_fixture_sa063 () =
  with_fixture "sa063_det.ml" (fun r ->
      Alcotest.(check int) "hashtbl + wall clock + random" 3 (count_code "SA063" r))

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

let test_fixture_sa071 () =
  with_fixture "sa071_io.ml" (fun r ->
      Alcotest.(check int) "one hot IO flagged" 1 (count_code "SA071" r);
      Alcotest.(check int) "no allocation hit piggybacks" 0 (count_code "SA070" r))

let test_fixture_sa072 () =
  with_fixture "sa072_rec.ml" (fun r ->
      Alcotest.(check int) "non-tail self-recursion flagged" 1 (count_code "SA072" r);
      match hit_with_code "SA072" r with
      | Some h ->
        Alcotest.(check bool) "names the recursive binding" true
          (Rules.contains_sub h.Srclint.h_diag.D.message "'sum'")
      | None -> Alcotest.fail "SA072 hit missing")

let test_fixture_sa073 () =
  with_fixture "sa073_unresolved.ml" (fun r ->
      Alcotest.(check int) "unresolved hot annotation flagged" 1 (count_code "SA073" r))

let test_fixture_sa074 () =
  with_fixture "sa074_stale.ml" (fun r ->
      Alcotest.(check int) "stale hot annotation flagged" 1 (count_code "SA074" r);
      match hit_with_code "SA074" r with
      | Some h ->
        Alcotest.(check bool) "explains the function requirement" true
          (Rules.contains_sub h.Srclint.h_diag.D.message "must be functions")
      | None -> Alcotest.fail "SA074 hit missing")

(* The tentpole's reason to exist: the same root file is provably clean
   under the old per-file view (a scan of just that file) and dirty under
   the whole-program view (a scan of the directory, which resolves the
   dotted call into the sibling module). One pair per cross-module pass. *)
let test_cross_module_sa060 () =
  with_fixture "sa060_cross/feeder.ml" (fun r ->
      Alcotest.(check int) "single-file scan misses the blocking call" 0
        (count_code "SA060" r));
  with_fixture "sa060_cross" (fun r ->
      Alcotest.(check int) "directory scan resolves Pump.next" 1 (count_code "SA060" r);
      match hit_with_code "SA060" r with
      | Some h ->
        Alcotest.(check bool) "chain crosses the module boundary" true
          (Rules.contains_sub h.Srclint.h_diag.D.message "serve -> Pump.next")
      | None -> Alcotest.fail "SA060 hit missing")

let test_cross_module_sa070 () =
  with_fixture "sa070_cross/ticker.ml" (fun r ->
      Alcotest.(check int) "single-file scan misses the allocation" 0
        (count_code "SA070" r));
  with_fixture "sa070_cross" (fun r ->
      Alcotest.(check int) "directory scan resolves Gen.step" 1 (count_code "SA070" r);
      match hit_with_code "SA070" r with
      | Some h ->
        Alcotest.(check bool) "chain crosses the module boundary" true
          (Rules.contains_sub h.Srclint.h_diag.D.message "tick_hot -> Gen.step")
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
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " listed") true
        (List.exists (fun (id', _, _, _) -> id' = id) table))
    [ "SA070"; "SA071"; "SA072"; "SA073"; "SA074" ]

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

(* SA063's production scope is lib/serve plus lib/cost (the cost model
   and its probes keep hashtables on the search path). Stage the cost fixture under both a
   lib/cost/ and a lib/arch/ path and scan with the *scoped* rules: the
   same source must fire in cost and stay silent in arch. *)
let test_sa063_cost_scope () =
  let src = In_channel.with_open_text (fixture_path "sa063_cost.ml") In_channel.input_all in
  let tmp = Filename.temp_file "sun_sa063" "" in
  Sys.remove tmp;
  Fun.protect
    ~finally:(fun () ->
      let rm p = if Sys.file_exists p then Sys.remove p in
      rm (Filename.concat tmp "lib/cost/sa063_cost.ml");
      rm (Filename.concat tmp "lib/arch/sa063_cost.ml");
      let rmdir p = if Sys.file_exists p then Sys.rmdir p in
      rmdir (Filename.concat tmp "lib/cost");
      rmdir (Filename.concat tmp "lib/arch");
      rmdir (Filename.concat tmp "lib");
      rmdir tmp)
    (fun () ->
      let mkdir p = try Sys.mkdir p 0o755 with Sys_error _ -> () in
      List.iter
        (fun sub ->
          let dir = Filename.concat tmp sub in
          mkdir tmp;
          mkdir (Filename.dirname dir);
          mkdir dir;
          Out_channel.with_open_text (Filename.concat dir "sa063_cost.ml") (fun oc ->
              Out_channel.output_string oc src))
        [ "lib/cost"; "lib/arch" ];
      let scan sub =
        Srclint.scan ~rules:(Rules.default_rules ()) ~roots:[ Filename.concat tmp sub ] ()
      in
      Alcotest.(check int) "fires under lib/cost" 3 (count_code "SA063" (scan "lib/cost"));
      Alcotest.(check int) "silent under lib/arch" 0 (count_code "SA063" (scan "lib/arch")))

(* ------------------------------------------------------------------ *)
(* The shipping tree satisfies the full production rule set             *)
(* ------------------------------------------------------------------ *)

let test_tree_clean () =
  let root = source_root () in
  let roots = List.map (Filename.concat root) [ "lib"; "bin"; "bench" ] in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Alcotest.failf "source subtree %s is missing" d)
    roots;
  let r = Srclint.scan ~rules:(Rules.default_rules ()) ~roots () in
  Alcotest.(check (list string)) "production scan is clean" []
    (List.map Srclint.hit_string r.Srclint.hits);
  Alcotest.(check (list string)) "no stale suppressions" []
    (List.map (fun (d : D.t) -> d.D.message) r.Srclint.stale);
  Alcotest.(check bool) "scanned the whole tree" true (r.Srclint.files_scanned > 40)

(* ------------------------------------------------------------------ *)
(* contains_sub: iterative, survives pathological lines                 *)
(* ------------------------------------------------------------------ *)

let test_contains_sub () =
  Alcotest.(check bool) "finds" true (Rules.contains_sub "abcdef" "cde");
  Alcotest.(check bool) "misses" false (Rules.contains_sub "abcdef" "xyz");
  Alcotest.(check bool) "empty needle" false (Rules.contains_sub "abc" "");
  Alcotest.(check bool) "needle longer than hay" false (Rules.contains_sub "ab" "abc");
  let mega = String.make 2_000_000 'a' in
  Alcotest.(check bool) "worst case self-similar miss" false
    (Rules.contains_sub mega (String.make 64 'a' ^ "b"));
  Alcotest.(check bool) "finds at the very end" true
    (Rules.contains_sub (mega ^ "needle") "needle")

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
        [ Alcotest.test_case "planted violations" `Quick test_forksafe_violations ] );
      ( "fixtures",
        [
          Alcotest.test_case "SA060 blocking in loop" `Quick test_fixture_sa060;
          Alcotest.test_case "SA061 fd leak" `Quick test_fixture_sa061;
          Alcotest.test_case "SA062 busy signal handler" `Quick test_fixture_sa062;
          Alcotest.test_case "SA063 determinism hazards" `Quick test_fixture_sa063;
          Alcotest.test_case "SA064 exception swallowing" `Quick test_fixture_sa064;
          Alcotest.test_case "SA065 stale suppression" `Quick test_fixture_sa065;
          Alcotest.test_case "SA070 hot allocation + chain golden" `Quick test_fixture_sa070;
          Alcotest.test_case "SA071 hot IO" `Quick test_fixture_sa071;
          Alcotest.test_case "SA072 non-tail recursion" `Quick test_fixture_sa072;
          Alcotest.test_case "SA073 unresolved hot annotation" `Quick test_fixture_sa073;
          Alcotest.test_case "SA074 stale hot annotation" `Quick test_fixture_sa074;
          Alcotest.test_case "SA060 cross-module pair" `Quick test_cross_module_sa060;
          Alcotest.test_case "SA070 cross-module pair" `Quick test_cross_module_sa070;
          Alcotest.test_case "SA063 lib/cost scoping" `Quick test_sa063_cost_scope;
        ] );
      ( "rules",
        [ Alcotest.test_case "--list-rules table in sync" `Quick test_rule_table_sync ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false lexer_extents_prop ] );
      ( "tree",
        [
          Alcotest.test_case "production scan is clean" `Quick test_tree_clean;
          Alcotest.test_case "contains_sub pathological" `Quick test_contains_sub;
          Alcotest.test_case "walk accepts file roots" `Quick test_walk_single_file;
        ] );
    ]
