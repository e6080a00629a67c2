(* The command line run against the built binary: the shared search
   flags [--beam] and [--top-down] parse to one optimizer config on every
   command that searches, and a beam narrower than 1 is refused before
   anything runs; [sunstone list] prints the committed registry listing. *)

let cli =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "sunstone_cli.exe"))

(* Exit code, stdout and stderr of the CLI on [args]. *)
let run args =
  let out = Filename.temp_file "sunstone_cli" ".out" in
  let err = Filename.temp_file "sunstone_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" (Filename.quote cli)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out) (Filename.quote err))
  in
  let read f =
    let text = In_channel.with_open_text f In_channel.input_all in
    Sys.remove f;
    text
  in
  let out = read out in
  (code, out, read err)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Every searching command with its required arguments. Parsing fails
   before [serve] binds its socket or [batch] opens its files. *)
let commands =
  [
    [ "schedule"; "-w"; "conv1d"; "-a"; "toy" ];
    [ "batch"; "-i"; "missing.jsonl"; "-o"; "-" ];
    [ "export"; "-w"; "conv1d"; "-a"; "toy" ];
    [ "serve"; "--listen"; "unix:missing.sock" ];
  ]

let test_beam_below_one_rejected () =
  List.iter
    (fun cmd ->
      List.iter
        (fun beam ->
          let code, _, err = run (cmd @ [ "--beam=" ^ beam ]) in
          let what = Printf.sprintf "%s --beam=%s" (List.hd cmd) beam in
          Alcotest.(check int) (what ^ ": cmdliner usage exit") 124 code;
          Alcotest.(check bool) (what ^ ": names the beam width") true (contains err "beam width"))
        [ "0"; "-3" ])
    commands

(* A valid beam and [--top-down] reach the config [export] writes. *)
let test_config_flags () =
  let code, out, err = run [ "export"; "-w"; "conv1d"; "-a"; "toy"; "--beam"; "2"; "--top-down" ] in
  Alcotest.(check int) ("export exit: " ^ err) 0 code;
  Alcotest.(check bool) "beam_width 2" true (contains out "\"beam_width\": 2");
  Alcotest.(check bool) "top-down" true (contains out "\"direction\": \"top_down\"");
  let code, out, err = run [ "export"; "-w"; "conv1d"; "-a"; "toy"; "--beam"; "1" ] in
  Alcotest.(check int) ("export --beam 1 exit: " ^ err) 0 code;
  Alcotest.(check bool) "beam_width 1" true (contains out "\"beam_width\": 1");
  Alcotest.(check bool) "bottom-up by default" true (contains out "\"direction\": \"bottom_up\"")

(* The registry's names, their workloads and the presets, in order: a
   change to how the catalog is built must not change what it holds. *)
let test_list_unchanged () =
  let code, out, err = run [ "list" ] in
  Alcotest.(check int) ("list exit: " ^ err) 0 code;
  let expected = In_channel.with_open_text "fixtures/sunstone_list.txt" In_channel.input_all in
  Alcotest.(check string) "sunstone list output" expected out

let () =
  Alcotest.run "sunstone_cli"
    [
      ( "config flags",
        [
          Alcotest.test_case "beam below one rejected" `Quick test_beam_below_one_rejected;
          Alcotest.test_case "beam and top-down reach the config" `Quick test_config_flags;
        ] );
      ("registry", [ Alcotest.test_case "list output unchanged" `Quick test_list_unchanged ]);
    ]
