module J = Sun_serve.Json
module Codec = Sun_serve.Codec
module Fp = Sun_serve.Fingerprint
module Cache = Sun_serve.Cache
module Parpool = Sun_serve.Parpool
module Pipeline = Sun_serve.Pipeline
module Registry = Sun_serve.Registry
module W = Sun_tensor.Workload
module M = Sun_mapping.Mapping
module Model = Sun_cost.Model
module Opt = Sun_core.Optimizer

let ok = function
  | Ok x -> x
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg -> Alcotest.(check bool) (what ^ " has message") true (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let matmul_like ~name ~m ~n ~k dims_order (dm, dn, dk) =
  W.make ~name
    ~dims:(List.map (fun d -> if d = dm then (d, m) else if d = dn then (d, n) else (d, k)) dims_order)
    ~operands:
      [
        { W.name = "out"; kind = `Output; indices = [ W.Dim dm; W.Dim dn ] };
        { W.name = "a"; kind = `Input; indices = [ W.Dim dm; W.Dim dk ] };
        { W.name = "b"; kind = `Input; indices = [ W.Dim dk; W.Dim dn ] };
      ]

(* Same operand order as Catalog.conv1d so only dims differ across variants. *)
let conv1d_like ~name (dk, dc, dp, dr) =
  W.make ~name
    ~dims:[ (dk, 4); (dc, 4); (dp, 14); (dr, 3) ]
    ~operands:
      [
        { W.name = "ifmap"; kind = `Input; indices = [ W.Dim dc; W.Affine [ (dp, 1); (dr, 1) ] ] };
        { W.name = "weight"; kind = `Input; indices = [ W.Dim dk; W.Dim dc; W.Dim dr ] };
        { W.name = "ofmap"; kind = `Output; indices = [ W.Dim dk; W.Dim dp ] };
      ]

let conv1d = conv1d_like ~name:"conv1d" ("K", "C", "P", "R")

let toy = Sun_arch.Presets.toy ()

let optimized =
  match Opt.optimize conv1d toy with
  | Ok r -> r
  | Error msg -> Alcotest.failf "fixture optimize failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_print_parse () =
  let samples =
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 3.141592653589793;
      J.Float 1e-20;
      J.String "plain";
      J.String "esc \"quotes\" \\ and \n tab \t done";
      J.List [ J.Int 1; J.List []; J.Obj [] ];
      J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Bool false; J.Null ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      Alcotest.(check bool) ("roundtrip " ^ s) true (ok (J.of_string s) = v);
      Alcotest.(check bool) ("pretty roundtrip " ^ s) true (ok (J.of_string (J.to_string_pretty v)) = v))
    samples

let test_json_parse_forms () =
  Alcotest.(check bool) "int" true (ok (J.of_string "17") = J.Int 17);
  Alcotest.(check bool) "float dot" true (ok (J.of_string "1.5") = J.Float 1.5);
  Alcotest.(check bool) "float exp" true (ok (J.of_string "2e3") = J.Float 2000.0);
  Alcotest.(check bool) "ws" true (ok (J.of_string "  [ 1 , 2 ]  ") = J.List [ J.Int 1; J.Int 2 ]);
  Alcotest.(check bool) "unicode escape" true (ok (J.of_string "\"\\u0041\"") = J.String "A");
  expect_error "garbage" (J.of_string "nonsense");
  expect_error "trailing" (J.of_string "1 2");
  expect_error "unterminated" (J.of_string "\"abc");
  expect_error "empty" (J.of_string "")

(* JSON has no spelling for non-finite floats: encoding one must raise, and
   the spellings other encoders use (plus overflowing literals) must be
   parse errors, never values that round-trip into invalid output. *)
let test_json_non_finite () =
  List.iter
    (fun f ->
      match J.to_string (J.Float f) with
      | s -> Alcotest.fail (Printf.sprintf "non-finite %h encoded as %s" f s)
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity ];
  expect_error "NaN literal" (J.of_string "NaN");
  expect_error "Infinity literal" (J.of_string "Infinity");
  expect_error "-Infinity literal" (J.of_string "-Infinity");
  expect_error "nested non-finite" (J.of_string {|{"cost": Infinity}|});
  expect_error "overflowing float" (J.of_string "1e309");
  expect_error "overflowing negative float" (J.of_string "-1e309");
  expect_error "overflowing int-looking literal" (J.of_string (String.make 400 '9'));
  (* the finite edges of the double range still round-trip *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "finite %h round-trips" f)
        true
        (ok (J.of_string (J.to_string (J.Float f))) = J.Float f))
    [ 1.7976931348623157e308; -1.7976931348623157e308; 5e-324 ]

let test_json_float_precision () =
  List.iter
    (fun f ->
      match ok (J.of_string (J.to_string (J.Float f))) with
      | J.Float f' -> Alcotest.(check bool) (string_of_float f) true (Int64.bits_of_float f = Int64.bits_of_float f')
      | _ -> Alcotest.fail "float reparsed as non-float")
    [ 0.1; 1.0 /. 3.0; 6.02214076e23; 1.7976931348623157e308; 5e-324; 14.0; 0.0 ]

(* ------------------------------------------------------------------ *)
(* Codec round trips                                                   *)
(* ------------------------------------------------------------------ *)

let through codec_encode codec_decode x = ok (codec_decode (ok (J.of_string (J.to_string (codec_encode x)))))

let test_codec_workload () =
  List.iter
    (fun (name, w) ->
      let w' = through Codec.encode_workload Codec.decode_workload w in
      Alcotest.(check bool) ("workload " ^ name) true (w' = w))
    (("conv1d-manual", conv1d) :: Registry.workloads ())

let test_codec_arch () =
  List.iter
    (fun (name, a) ->
      let a' = through Codec.encode_arch Codec.decode_arch a in
      Alcotest.(check bool) ("arch " ^ name) true (a' = a))
    Registry.architectures

let config_fields_equal (a : Opt.config) (b : Opt.config) =
  a.Opt.direction = b.Opt.direction && a.Opt.intra = b.Opt.intra
  && a.Opt.beam_width = b.Opt.beam_width
  && a.Opt.alpha_beta = b.Opt.alpha_beta
  && a.Opt.min_spatial_utilization = b.Opt.min_spatial_utilization
  && a.Opt.refine = b.Opt.refine

let test_codec_config () =
  let variants =
    [
      Opt.default_config;
      { Opt.default_config with Opt.direction = Opt.Top_down; intra = Opt.Ordering_first };
      { Opt.default_config with Opt.intra = Opt.Tiling_first; beam_width = 3; alpha_beta = false };
      { Opt.default_config with Opt.min_spatial_utilization = 0.25; refine = false };
    ]
  in
  List.iter
    (fun c ->
      let c' = through Codec.encode_config Codec.decode_config c in
      Alcotest.(check bool) "config fields" true (config_fields_equal c c'))
    variants

let test_codec_mapping () =
  let m = optimized.Opt.mapping in
  let m' = through Codec.encode_mapping (Codec.decode_mapping conv1d) m in
  Alcotest.(check bool) "mapping" true (m' = m);
  (* decoding re-validates against the workload: a mapping for another
     problem must be rejected *)
  let other = matmul_like ~name:"mm" ~m:12 ~n:8 ~k:5 [ "M"; "N"; "K" ] ("M", "N", "K") in
  expect_error "foreign mapping" (Codec.decode_mapping other (Codec.encode_mapping m))

let test_codec_cost () =
  let c = optimized.Opt.cost in
  let c' = through Codec.encode_cost Codec.decode_cost c in
  Alcotest.(check bool) "cost record bit-identical" true (c' = c)

let test_codec_versioning () =
  let tamper ~v json =
    match json with
    | J.Obj fields -> J.Obj (List.map (fun (k, x) -> if k = "v" then (k, v) else (k, x)) fields)
    | _ -> Alcotest.fail "expected envelope object"
  in
  let reject what decode json =
    expect_error (what ^ " wrong version") (decode (tamper ~v:(J.Int 99) json));
    expect_error (what ^ " missing version")
      (decode (match json with J.Obj f -> J.Obj (List.remove_assoc "v" f) | _ -> json))
  in
  reject "workload" Codec.decode_workload (Codec.encode_workload conv1d);
  reject "arch" Codec.decode_arch (Codec.encode_arch toy);
  reject "config" Codec.decode_config (Codec.encode_config Opt.default_config);
  reject "mapping" (Codec.decode_mapping conv1d) (Codec.encode_mapping optimized.Opt.mapping);
  reject "cost" Codec.decode_cost (Codec.encode_cost optimized.Opt.cost);
  (* kind confusion is also rejected *)
  expect_error "kind mismatch" (Codec.decode_arch (Codec.encode_workload conv1d))

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_renaming () =
  let base = matmul_like ~name:"mm" ~m:12 ~n:8 ~k:5 [ "M"; "N"; "K" ] ("M", "N", "K") in
  let renamed = matmul_like ~name:"other-name" ~m:12 ~n:8 ~k:5 [ "X"; "Y"; "Z" ] ("X", "Y", "Z") in
  let permuted = matmul_like ~name:"mm" ~m:12 ~n:8 ~k:5 [ "K"; "M"; "N" ] ("M", "N", "K") in
  Alcotest.(check string) "dim renaming collides" (Fp.workload base) (Fp.workload renamed);
  Alcotest.(check string) "dims permutation collides" (Fp.workload base) (Fp.workload permuted);
  let bigger = matmul_like ~name:"mm" ~m:24 ~n:8 ~k:5 [ "M"; "N"; "K" ] ("M", "N", "K") in
  Alcotest.(check bool) "bound change separates" false (Fp.workload base = Fp.workload bigger)

let test_fingerprint_affine () =
  let renamed = conv1d_like ~name:"renamed" ("A", "B", "U", "V") in
  Alcotest.(check string) "conv renaming collides" (Fp.workload conv1d) (Fp.workload renamed);
  (* P and R share ifmap's affine index but are distinguished by their
     other occurrences and bounds: giving the ofmap dimension R's small
     bound (and vice versa) is a structurally different problem *)
  let swapped =
    W.make ~name:"swapped"
      ~dims:[ ("K", 4); ("C", 4); ("P", 3); ("R", 14) ]
      ~operands:
        [
          { W.name = "ifmap"; kind = `Input; indices = [ W.Dim "C"; W.Affine [ ("P", 1); ("R", 1) ] ] };
          { W.name = "weight"; kind = `Input; indices = [ W.Dim "K"; W.Dim "C"; W.Dim "R" ] };
          { W.name = "ofmap"; kind = `Output; indices = [ W.Dim "K"; W.Dim "P" ] };
        ]
  in
  Alcotest.(check bool) "swapped sliding bounds separates" false
    (Fp.workload conv1d = Fp.workload swapped);
  (* pure label swap with bounds attached to the same structural roles
     still collides *)
  let relabeled = conv1d_like ~name:"relabeled" ("K", "C", "R", "P") in
  Alcotest.(check string) "label swap collides" (Fp.workload conv1d) (Fp.workload relabeled)

let test_fingerprint_request () =
  let fp = Fp.request conv1d toy in
  Alcotest.(check string) "deterministic" fp (Fp.request conv1d toy);
  let beam_changed = { Opt.default_config with Opt.beam_width = 3 } in
  Alcotest.(check bool) "config separates" false (fp = Fp.request ~config:beam_changed conv1d toy);
  Alcotest.(check bool) "arch separates" false
    (fp = Fp.request conv1d (Sun_arch.Presets.toy ~l1_words:16 ()));
  (* structurally identical repeated layers collide on purpose *)
  let renamed = conv1d_like ~name:"block2/conv" ("K", "C", "P", "R") in
  Alcotest.(check string) "repeated layer collides" fp (Fp.request renamed toy)

let test_fingerprint_structural () =
  let base = matmul_like ~name:"mm" ~m:12 ~n:8 ~k:5 [ "M"; "N"; "K" ] ("M", "N", "K") in
  let renamed = matmul_like ~name:"mm2" ~m:12 ~n:8 ~k:5 [ "X"; "Y"; "Z" ] ("X", "Y", "Z") in
  let bigger = matmul_like ~name:"mm" ~m:24 ~n:8 ~k:5 [ "M"; "N"; "K" ] ("M", "N", "K") in
  Alcotest.(check string) "renaming keeps the structural form"
    (Fp.structural_workload base) (Fp.structural_workload renamed);
  (* the defining property: a bound change moves the request fingerprint
     but never the shape family *)
  Alcotest.(check string) "bound change keeps the family"
    (Fp.structural_workload base) (Fp.structural_workload bigger);
  Alcotest.(check bool) "but separates the request fingerprint" false
    (Fp.workload base = Fp.workload bigger);
  Alcotest.(check string) "family digest agrees" (Fp.structural base toy)
    (Fp.structural bigger toy);
  (* arch and config are part of the family: a different machine or search
     setup must not transfer *)
  Alcotest.(check bool) "arch separates families" false
    (Fp.structural base toy = Fp.structural base (Sun_arch.Presets.toy ~l1_words:16 ()));
  Alcotest.(check bool) "config separates families" false
    (Fp.structural base toy
    = Fp.structural ~config:{ Opt.default_config with Opt.beam_width = 3 } base toy);
  (* structural order is bound-free, so family members correspond
     position-by-position even when their bounds differ *)
  let dims_base = Fp.structural_dims base and dims_big = Fp.structural_dims bigger in
  Alcotest.(check (list string)) "positional correspondence" dims_base dims_big;
  Alcotest.(check (list int)) "bounds follow the structural order"
    (List.map (W.bound bigger) dims_big)
    (Array.to_list (Fp.structural_bounds bigger))

let fingerprint_qcheck_props =
  let open QCheck in
  let name_pools = [ ("M", "N", "K"); ("X", "Y", "Z"); ("a1", "b2", "c3"); ("q", "w", "e") ] in
  let perms = [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ]; [ 2; 1; 0 ] ] in
  [
    Test.make ~name:"canonical form invariant under dim renames and declaration order" ~count:100
      (pair (oneofl name_pools) (oneofl perms))
      (fun ((m, n, k), perm) ->
        let base = matmul_like ~name:"mm" ~m:12 ~n:8 ~k:5 [ "M"; "N"; "K" ] ("M", "N", "K") in
        let names = [| m; n; k |] in
        let order = List.map (fun i -> names.(i)) perm in
        let variant = matmul_like ~name:"other" ~m:12 ~n:8 ~k:5 order (m, n, k) in
        Fp.canonical_workload base = Fp.canonical_workload variant
        && Fp.structural_workload base = Fp.structural_workload variant);
    Test.make ~name:"bound changes move the request fingerprint, never the family" ~count:100
      (triple (int_range 1 64) (int_range 1 64) (int_range 1 64))
      (fun (m, n, k) ->
        let base = matmul_like ~name:"mm" ~m:12 ~n:8 ~k:5 [ "M"; "N"; "K" ] ("M", "N", "K") in
        let scaled = matmul_like ~name:"mm" ~m ~n ~k [ "M"; "N"; "K" ] ("M", "N", "K") in
        Fp.structural_workload base = Fp.structural_workload scaled
        && (Fp.workload base = Fp.workload scaled) = (m = 12 && n = 8 && k = 5));
  ]

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  path

let test_cache_memory () =
  let c = Cache.create ~capacity:8 () in
  Alcotest.(check bool) "miss on empty" true (Cache.find c "k1" = None);
  Cache.store c "k1" (J.Int 1);
  Alcotest.(check bool) "hit" true (Cache.find c "k1" = Some (J.Int 1));
  Cache.store c "k1" (J.Int 2);
  Alcotest.(check bool) "overwrite" true (Cache.find c "k1" = Some (J.Int 2));
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "stores" 2 s.Cache.stores

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c "a" (J.Int 1);
  Cache.store c "b" (J.Int 2);
  ignore (Cache.find c "a");
  (* "b" is now least recently used *)
  Cache.store c "c" (J.Int 3);
  Alcotest.(check bool) "a survives" true (Cache.find c "a" = Some (J.Int 1));
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "c present" true (Cache.find c "c" = Some (J.Int 3));
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions

let test_cache_disk_persistence () =
  let dir = fresh_dir "sun_cache_test" in
  let c1 = Cache.create ~dir () in
  Cache.store c1 "deadbeef" (J.Obj [ ("x", J.Int 7) ]);
  (* a fresh instance over the same directory sees the entry *)
  let c2 = Cache.create ~dir () in
  Alcotest.(check bool) "disk hit" true (Cache.find c2 "deadbeef" = Some (J.Obj [ ("x", J.Int 7) ]));
  Alcotest.(check int) "counted as disk hit" 1 (Cache.stats c2).Cache.disk_hits;
  (* promoted to memory: a second lookup is served without re-reading *)
  Alcotest.(check bool) "promoted" true (Cache.find c2 "deadbeef" <> None);
  Alcotest.(check int) "still one disk hit" 1 (Cache.stats c2).Cache.disk_hits

let test_cache_corrupt_entry () =
  let dir = fresh_dir "sun_cache_corrupt" in
  let c1 = Cache.create ~dir () in
  Cache.store c1 "abcd" (J.Int 1);
  (* truncate the persisted entry mid-document *)
  let path = Filename.concat dir "abcd.json" in
  let oc = open_out path in
  output_string oc "{\"v\":1,\"trunc";
  close_out oc;
  let c2 = Cache.create ~dir () in
  Alcotest.(check bool) "corrupt is a miss, not a crash" true (Cache.find c2 "abcd" = None);
  let s = Cache.stats c2 in
  Alcotest.(check int) "corrupt counted" 1 s.Cache.corrupt;
  Alcotest.(check int) "miss counted" 1 s.Cache.misses;
  (* a store heals the entry *)
  Cache.store c2 "abcd" (J.Int 2);
  Alcotest.(check bool) "healed" true (Cache.find c2 "abcd" = Some (J.Int 2))

let test_cache_truncated_value_file () =
  (* a value file cut short at any byte — the shape a crash between write
     and rename would leave without [persist]'s fsync-before-rename — must
     read as a clean miss, never a crash or a half-decoded document *)
  let dir = fresh_dir "sun_cache_trunc" in
  let doc =
    J.Obj [ ("v", J.Int 1); ("mapping", J.Obj [ ("note", J.String (String.make 64 'x')) ]) ]
  in
  let c1 = Cache.create ~dir () in
  Cache.store c1 "wxyz" doc;
  let path = Filename.concat dir "wxyz.json" in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let check_truncated label keep =
    let oc = open_out_bin path in
    output_string oc (String.sub full 0 keep);
    close_out oc;
    let c = Cache.create ~dir () in
    Alcotest.(check bool) (label ^ " is a miss") true (Cache.find c "wxyz" = None);
    Alcotest.(check int) (label ^ " counted corrupt") 1 (Cache.stats c).Cache.corrupt
  in
  check_truncated "zero-byte value file" 0;
  check_truncated "half-written value file" (String.length full / 2);
  (* a store heals the entry for fresh readers *)
  let c2 = Cache.create ~dir () in
  Cache.store c2 "wxyz" doc;
  Alcotest.(check bool) "healed" true (Cache.find (Cache.create ~dir ()) "wxyz" = Some doc)

let test_cache_key_sanitization () =
  let dir = fresh_dir "sun_cache_keys" in
  let c = Cache.create ~dir () in
  Cache.store c "../escape/attempt" (J.Int 1);
  Alcotest.(check bool) "weird key round-trips" true (Cache.find c "../escape/attempt" = Some (J.Int 1));
  Alcotest.(check bool) "no path escape" true
    (Array.for_all (fun f -> not (String.length f > 5 && String.sub f 0 6 = "escape")) (Sys.readdir dir))

let test_cache_failed_persist_leaves_dir_clean () =
  let dir = fresh_dir "sun_cache_leak" in
  Unix.mkdir dir 0o755;
  (* occupy the entry's final path with a directory: the atomic rename at
     the end of the persist must fail after the temp file was written *)
  Unix.mkdir (Filename.concat dir "key1.json") 0o755;
  let c = Cache.create ~dir () in
  Cache.store c "key1" (J.Int 1);
  (* the failure is swallowed and the memory tier still serves... *)
  Alcotest.(check bool) "memory tier unaffected" true (Cache.find c "key1" = Some (J.Int 1));
  (* ...but the failed write must not leave its temp file behind *)
  Alcotest.(check bool) "no tmp litter" true
    (Array.for_all (fun f -> not (contains_substring f ".tmp.")) (Sys.readdir dir))

let test_cache_shared_dir_interleaved () =
  let dir = fresh_dir "sun_cache_shared" in
  let c1 = Cache.create ~dir () in
  let c2 = Cache.create ~dir () in
  let key i = Printf.sprintf "k%d" i in
  for i = 0 to 49 do
    Cache.store c1 (key i) (J.Obj [ ("writer", J.Int 1); ("i", J.Int i) ]);
    Cache.store c2 (key i) (J.Obj [ ("writer", J.Int 2); ("i", J.Int i) ])
  done;
  (* a fresh instance over the same directory: every entry must parse and
     be exactly one writer's complete document — never an interleaving *)
  let c3 = Cache.create ~dir ~capacity:64 () in
  for i = 0 to 49 do
    match Cache.find c3 (key i) with
    | Some (J.Obj [ ("writer", J.Int w); ("i", J.Int i') ]) ->
      Alcotest.(check int) "entry index intact" i i';
      Alcotest.(check bool) "entry from one writer" true (w = 1 || w = 2)
    | _ -> Alcotest.failf "entry %s missing or mangled" (key i)
  done;
  Alcotest.(check int) "no corrupt entries" 0 (Cache.stats c3).Cache.corrupt

let test_cache_concurrent_fork_writers () =
  let dir = fresh_dir "sun_cache_fork" in
  let key k = Printf.sprintf "k%d" k in
  let children =
    List.init 4 (fun child ->
        match Unix.fork () with
        | 0 ->
          (try
             let c = Cache.create ~dir () in
             for i = 0 to 24 do
               Cache.store c (key (i mod 10)) (J.Obj [ ("child", J.Int child); ("i", J.Int i) ])
             done
           with _ -> Unix._exit 1);
          Unix._exit 0
        | pid -> pid)
  in
  List.iter
    (fun pid ->
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "writer exited cleanly" true (status = Unix.WEXITED 0))
    children;
  (* the pid-tagged temp + atomic rename protocol: whatever the interleaving,
     every entry is one writer's complete document *)
  let c = Cache.create ~dir () in
  for k = 0 to 9 do
    match Cache.find c (key k) with
    | Some (J.Obj [ ("child", J.Int child); ("i", J.Int i) ]) ->
      Alcotest.(check bool) "child id valid" true (child >= 0 && child < 4);
      Alcotest.(check int) "value belongs to this key" k (i mod 10)
    | _ -> Alcotest.failf "entry %s missing or mangled" (key k)
  done;
  Alcotest.(check int) "no corrupt entries" 0 (Cache.stats c).Cache.corrupt

(* Regression for the lossy-file-name collision: ["a/b"] and ["a_b"] both
   sanitize to [a_b.json]. Before the exact key was stored inside the
   document, a lookup for either key returned whichever value was written
   last — a silent wrong-value hit across distinct fingerprints. *)
let test_cache_colliding_keys () =
  let dir = fresh_dir "sun_cache_collide" in
  let c1 = Cache.create ~dir () in
  Cache.store c1 "a/b" (J.Int 1);
  let c2 = Cache.create ~dir () in
  Alcotest.(check bool) "colliding key misses instead of stealing the value" true
    (Cache.find c2 "a_b" = None);
  let s = Cache.stats c2 in
  Alcotest.(check int) "mismatched owner counted corrupt" 1 s.Cache.corrupt;
  Alcotest.(check int) "and as a miss" 1 s.Cache.misses;
  Alcotest.(check bool) "exact key still hits" true (Cache.find c2 "a/b" = Some (J.Int 1));
  (* last writer owns the shared file; the displaced key must miss, never
     see the other key's value *)
  Cache.store c2 "a_b" (J.Int 2);
  let c3 = Cache.create ~dir () in
  Alcotest.(check bool) "new owner readable" true (Cache.find c3 "a_b" = Some (J.Int 2));
  Alcotest.(check bool) "displaced key is a miss" true (Cache.find c3 "a/b" = None)

let family_doc fam bounds tag =
  J.Obj
    [
      ("family", J.String fam);
      ("bounds", J.List (List.map (fun b -> J.Int b) bounds));
      ("tag", J.Int tag);
    ]

let tag_of doc = match J.member "tag" doc with Some (J.Int t) -> t | _ -> -1

let test_cache_nearest_family () =
  let c = Cache.create () in
  Cache.store c "k0" (family_doc "f" [ 4; 8 ] 0);
  Cache.store c "k1" (family_doc "f" [ 8; 8 ] 1);
  Cache.store c "k2" (family_doc "f" [ 64; 8 ] 2);
  Cache.store c "other" (family_doc "g" [ 8; 8 ] 3);
  Cache.store c "plain" (J.Int 9);
  let tags ?exclude_bounds ?(family = "f") k =
    List.map tag_of (Cache.nearest_many ?exclude_bounds c ~family ~bounds:[| 8; 8 |] ~k)
  in
  (* exact member wins; other families and non-family docs never match *)
  Alcotest.(check (list int)) "exact bounds" [ 1 ] (tags 1);
  (* excluding the exact bounds falls to the log-closest member:
     |ln(8/4)| = 0.69 beats |ln(8/64)| = 2.08 *)
  Alcotest.(check (list int)) "exclusion falls to next closest" [ 0 ]
    (tags ~exclude_bounds:[| 8; 8 |] 1);
  (* the whole family is ranked and capped at k *)
  Alcotest.(check (list int)) "ranked by distance" [ 1; 0; 2 ] (tags 3);
  Alcotest.(check (list int)) "capped at k" [ 1; 0 ] (tags 2);
  Alcotest.(check (list int)) "unknown family" [] (tags ~family:"h" 1);
  (* probes perturb neither the stats nor the LRU accounting *)
  let s = Cache.stats c in
  Alcotest.(check int) "no probe hits" 0 s.Cache.hits;
  Alcotest.(check int) "no probe misses" 0 s.Cache.misses

let cache_qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"in-memory LRU never exceeds capacity" ~count:300
      (list (pair bool (int_bound 20)))
      (fun ops ->
        let c = Cache.create ~capacity:4 () in
        List.for_all
          (fun (is_store, k) ->
            let keyname = Printf.sprintf "k%d" k in
            if is_store then Cache.store c keyname (J.Int k) else ignore (Cache.find c keyname);
            Cache.size c <= Cache.capacity c)
          ops);
    (* The documented stats invariants (cache.mli): every lookup is a hit or
       a miss — corrupt disk entries included, corrupt subdivides the misses
       rather than forming a third outcome. Ops: 0 = store, 1 = find, 2 =
       corrupt the key's disk entry and evict it from the (capacity-1)
       memory tier so the next find must trip over the corrupt file. *)
    Test.make ~name:"stats accounting: hits + misses = lookups, corrupt within misses"
      ~count:100
      (list (pair (int_bound 2) (int_bound 3)))
      (fun ops ->
        let dir = fresh_dir "sun_cache_stats" in
        let c = Cache.create ~capacity:1 ~dir () in
        let finds = ref 0 in
        List.iter
          (fun (op, k) ->
            let keyname = Printf.sprintf "k%d" k in
            match op with
            | 0 -> Cache.store c keyname (J.Int k)
            | 1 ->
              incr finds;
              ignore (Cache.find c keyname)
            | _ ->
              let path = Filename.concat dir (keyname ^ ".json") in
              (if Sys.file_exists path then begin
                 let oc = open_out path in
                 output_string oc "{ not json";
                 close_out oc
               end);
              Cache.store c "evictor" (J.Int 0))
          ops;
        let s = Cache.stats c in
        s.Cache.hits + s.Cache.misses = !finds
        && s.Cache.corrupt <= s.Cache.misses
        && s.Cache.disk_hits <= s.Cache.hits);
  ]

(* ------------------------------------------------------------------ *)
(* Parpool                                                             *)
(* ------------------------------------------------------------------ *)

let all_done replies =
  List.map (function Parpool.Done x -> x | _ -> Alcotest.fail "expected Done") replies

(* [f] over [xs] on [jobs] forked workers, replies in input order. *)
let pool_map ~jobs ~f xs =
  let pool = Parpool.create ~jobs ~f () in
  Fun.protect ~finally:(fun () -> Parpool.shutdown pool) @@ fun () ->
  let replies = Array.make (List.length xs) Parpool.Crashed in
  let rec go key = function
    | x :: rest when Parpool.idle pool > 0 ->
      Parpool.submit pool ~key x;
      go (key + 1) rest
    | rest when Parpool.pending pool > 0 ->
      let k, reply = Parpool.next pool in
      replies.(k) <- reply;
      go key rest
    | _ -> ()
  in
  go 0 xs;
  Array.to_list replies

let test_parpool_map_matches_inprocess () =
  let xs = List.init 50 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "jobs 4 = plain map, order preserved" (List.map f xs)
    (all_done (pool_map ~jobs:4 ~f xs))

let test_parpool_exception_is_failed () =
  let f x = if x = 2 then failwith "kaboom" else x * 10 in
  (* later jobs keep flowing through the worker that raised *)
  match pool_map ~jobs:2 ~f [ 1; 2; 3; 4 ] with
  | [ Parpool.Done 10; Parpool.Failed msg; Parpool.Done 30; Parpool.Done 40 ] ->
    Alcotest.(check bool) "jobs 2 carries the exception" true (contains_substring msg "kaboom")
  | _ -> Alcotest.fail "jobs 2: expected Done/Failed/Done/Done"

let test_parpool_crash_is_contained () =
  (* job 1 kills its worker on every attempt: the pool must retry once,
     give up on that job only, and keep serving the rest *)
  let f x =
    if x = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    x + 1
  in
  match pool_map ~jobs:2 ~f [ 0; 1; 2; 3 ] with
  | [ Parpool.Done 1; Parpool.Crashed; Parpool.Done 3; Parpool.Done 4 ] -> ()
  | _ -> Alcotest.fail "expected Done/Crashed/Done/Done"

let test_parpool_crash_retry_succeeds () =
  (* job 1 kills its worker only while the flag file exists (removing it
     first), so the pool's single retry must succeed *)
  let flag = Filename.temp_file "sun_parpool_crash" "" in
  let f x =
    if x = 1 && Sys.file_exists flag then begin
      (try Sys.remove flag with Sys_error _ -> ());
      Unix.kill (Unix.getpid ()) Sys.sigkill
    end;
    x + 1
  in
  let replies = pool_map ~jobs:2 ~f [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "crash-once is retried transparently" [ 1; 2; 3 ] (all_done replies);
  if Sys.file_exists flag then Sys.remove flag

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let batch_requests =
  [
    {|{"v":1,"id":"r0","workload":"conv1d","arch":"toy"}|};
    {|{"v":1,"id":"r1","workload":"conv1d","arch":"toy","beam":4}|};
    "";
    {|{"id":"r2","workload":"matmul","arch":"toy"}|};
  ]

let run_batch ?cache ?jobs requests =
  let input = Filename.temp_file "sun_pipe_in" ".jsonl" in
  let output = Filename.temp_file "sun_pipe_out" ".jsonl" in
  write_lines input requests;
  let summary = Pipeline.run_files ?cache ?jobs ~input ~output () in
  let lines = read_lines output in
  let responses = List.map (fun l -> ok (J.of_string l)) lines in
  Sys.remove input;
  Sys.remove output;
  (summary, responses, lines)

let response_field name r = ok (J.field name r)

let test_pipeline_cold_warm () =
  let dir = fresh_dir "sun_pipe_cache" in
  let cache1 = Cache.create ~dir () in
  let s1, r1, _ = run_batch ~cache:cache1 batch_requests in
  Alcotest.(check int) "3 requests" 3 s1.Pipeline.requests;
  Alcotest.(check int) "no errors" 0 s1.Pipeline.errors;
  Alcotest.(check int) "all computed cold" 3 s1.Pipeline.computed;
  (* run 2: fresh process-equivalent (new cache instance, same dir) *)
  let cache2 = Cache.create ~dir () in
  let s2, r2, _ = run_batch ~cache:cache2 batch_requests in
  Alcotest.(check bool) "second run >= 90% hits" true
    (float_of_int s2.Pipeline.hits >= 0.9 *. float_of_int s2.Pipeline.requests);
  Alcotest.(check int) "nothing recomputed" 0 s2.Pipeline.computed;
  (* responses bit-identical in mapping and cost *)
  List.iter2
    (fun a b ->
      Alcotest.(check string) "id echoes"
        (J.to_string (response_field "id" a))
        (J.to_string (response_field "id" b));
      Alcotest.(check string) "mapping bit-identical"
        (J.to_string (response_field "mapping" a))
        (J.to_string (response_field "mapping" b));
      Alcotest.(check string) "cost bit-identical"
        (J.to_string (response_field "cost" a))
        (J.to_string (response_field "cost" b));
      Alcotest.(check string) "energy bit-identical"
        (J.to_string (response_field "energy_pj" a))
        (J.to_string (response_field "energy_pj" b)))
    r1 r2

let test_pipeline_corrupt_degrades () =
  let dir = fresh_dir "sun_pipe_corrupt" in
  let s1, _, _ = run_batch ~cache:(Cache.create ~dir ()) batch_requests in
  Alcotest.(check int) "cold computes" 3 s1.Pipeline.computed;
  (* truncate every persisted entry *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".json" then begin
        let oc = open_out (Filename.concat dir f) in
        output_string oc "{\"v\":1,\"mapping\":{\"v\":1,";
        close_out oc
      end)
    (Sys.readdir dir);
  let cache = Cache.create ~dir () in
  let s2, _, _ = run_batch ~cache batch_requests in
  Alcotest.(check int) "no errors despite corruption" 0 s2.Pipeline.errors;
  Alcotest.(check int) "all recomputed" 3 s2.Pipeline.computed;
  Alcotest.(check bool) "corruption observed" true
    (match s2.Pipeline.cache_stats with Some st -> st.Cache.corrupt > 0 | None -> false);
  (* and the recomputation healed the store *)
  let s3, _, _ = run_batch ~cache:(Cache.create ~dir ()) batch_requests in
  Alcotest.(check int) "healed to full hits" 3 s3.Pipeline.hits

let test_pipeline_schema_drift_is_miss () =
  let dir = fresh_dir "sun_pipe_drift" in
  let _ = run_batch ~cache:(Cache.create ~dir ()) batch_requests in
  (* rewrite entries as valid JSON with a future version: decode must
     reject them and the pipeline recompute *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".json" then begin
        let oc = open_out (Filename.concat dir f) in
        output_string oc "{\"v\":99,\"mapping\":{},\"cost\":{}}";
        close_out oc
      end)
    (Sys.readdir dir);
  let s, _, _ = run_batch ~cache:(Cache.create ~dir ()) batch_requests in
  Alcotest.(check int) "drifted entries recomputed" 3 s.Pipeline.computed;
  Alcotest.(check int) "no errors" 0 s.Pipeline.errors

(* Rewrites the stored document inside every disk entry of [dir]. *)
let restamp_entries dir f =
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".json" then begin
        let path = Filename.concat dir name in
        let entry = ok (J.of_string (String.concat "\n" (read_lines path))) in
        let entry =
          match entry with
          | J.Obj fields ->
            J.Obj (List.map (fun (k, v) -> if k = "d" then (k, f v) else (k, v)) fields)
          | v -> v
        in
        write_lines path [ J.to_string entry ]
      end)
    (Sys.readdir dir)

let test_pipeline_stale_search_is_miss () =
  let dir = fresh_dir "sun_pipe_stale" in
  let _ = run_batch ~cache:(Cache.create ~dir ()) batch_requests in
  (* each entry keeps its valid mapping and cost; only the search version
     it claims changes: first another version, then none at all *)
  List.iter
    (fun (label, version) ->
      restamp_entries dir (function
        | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "search") fields @ version)
        | v -> v);
      let s, responses, _ = run_batch ~cache:(Cache.create ~dir ()) batch_requests in
      Alcotest.(check int) (label ^ ": no hits") 0 s.Pipeline.hits;
      Alcotest.(check (list string)) (label ^ ": recomputed")
        [ "computed"; "computed"; "computed" ]
        (List.map (fun r -> ok (J.as_string (response_field "status" r))) responses))
    [ ("another version", [ ("search", J.Int 0) ]); ("no version", []) ];
  let s, _, _ = run_batch ~cache:(Cache.create ~dir ()) batch_requests in
  Alcotest.(check int) "recomputed entries serve as hits" 3 s.Pipeline.hits

(* DESIGN.md §3.1: a change that regenerates the golden batch fixture or
   the end-to-end benchmark's reference answers bumps
   [Transfer.search_version], so caches written by the old search miss.
   Each file is pinned with the version as a pair: a regenerated file
   without the bump fails here. Both files are dependencies of this
   suite, read from the build tree ([file] is relative to test/). *)
let search_version_pins file digest () =
  Alcotest.(check (pair int string))
    (Printf.sprintf
       "DESIGN.md §3.1: regenerating %s bumps Transfer.search_version (then pin the new pair here)"
       (Filename.basename file))
    (1, digest)
    (Sun_serve.Transfer.search_version, Digest.to_hex (Digest.file file))

(* [f ()], and whether it forked: a forked worker's exit sends the parent
   SIGCHLD, which stays pending while blocked (its default action is to
   discard it, so unblocking leaves no trace). *)
let forks_during f =
  let old = Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigchld ] in
  Fun.protect
    ~finally:(fun () -> ignore (Unix.sigprocmask Unix.SIG_SETMASK old))
    (fun () ->
      let r = f () in
      (r, List.mem Sys.sigchld (Unix.sigpending ())))

let test_pipeline_all_hits_fork_nothing () =
  let dir = fresh_dir "sun_pipe_nofork" in
  let (cold, _, _), cold_forked =
    forks_during (fun () -> run_batch ~cache:(Cache.create ~dir ()) batch_requests)
  in
  Alcotest.(check int) "cold run computes" 3 cold.Pipeline.computed;
  Alcotest.(check bool) "a computing run forks" true cold_forked;
  let (warm, _, _), warm_forked =
    forks_during (fun () -> run_batch ~cache:(Cache.create ~dir ()) batch_requests)
  in
  Alcotest.(check int) "warm run all hits" 3 warm.Pipeline.hits;
  Alcotest.(check bool) "an all-hit run forks no worker" false warm_forked

let test_pipeline_errors_and_inline () =
  let inline_workload = J.to_string (Codec.encode_workload conv1d) in
  let requests =
    [
      {|{"workload":"nope","arch":"toy","id":"bad-wl"}|};
      {|{"workload":"conv1d","arch":"nope","id":"bad-arch"}|};
      "this is not json";
      {|{"arch":"toy","id":"no-wl"}|};
      {|{"v":7,"workload":"conv1d","arch":"toy","id":"bad-v"}|};
      Printf.sprintf {|{"workload":%s,"arch":"toy","id":"inline"}|} inline_workload;
    ]
  in
  let s, responses, _ = run_batch ~cache:(Cache.create ()) requests in
  Alcotest.(check int) "six requests" 6 s.Pipeline.requests;
  Alcotest.(check int) "five errors" 5 s.Pipeline.errors;
  Alcotest.(check int) "inline computed" 1 s.Pipeline.computed;
  let statuses =
    List.map (fun r -> ok (J.as_string (response_field "status" r))) responses
  in
  Alcotest.(check (list string)) "statuses"
    [ "error"; "error"; "error"; "error"; "error"; "computed" ]
    statuses;
  (* the inline workload must fingerprint identically to its named twin *)
  let inline_resp = List.nth responses 5 in
  Alcotest.(check string) "inline fingerprint matches registry twin"
    (Fp.request (ok (Registry.find_workload "conv1d")) toy)
    (ok (J.as_string (response_field "fingerprint" inline_resp)))

(* One batch mixing a valid search, a valid evaluation, a statically illegal
   mapping, a statically illegal inline arch, and a malformed JSON line:
   counters and per-line diagnostics must all come out right. *)
let test_pipeline_mixed_static_analysis () =
  let good_mapping = Codec.encode_mapping optimized.Opt.mapping in
  (* blow up one temporal factor so the per-dim product misses the bound *)
  let tampered_mapping =
    let tamper_level = function
      | J.Obj lf ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "temporal", J.List (J.List [ J.String d; J.Int _ ] :: rest) ->
                 (k, J.List (J.List [ J.String d; J.Int 4096 ] :: rest))
               | _ -> (k, v))
             lf)
      | v -> v
    in
    match good_mapping with
    | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "levels", J.List (l0 :: rest) -> (k, J.List (tamper_level l0 :: rest))
             | _ -> (k, v))
           fields)
    | v -> v
  in
  (* an inline arch that stores only weights: ifmap/ofmap are unstorable *)
  let weight_only_arch =
    let a = Sun_arch.Presets.toy () in
    {
      a with
      Sun_arch.Arch.levels =
        List.map
          (fun (l : Sun_arch.Arch.level) ->
            {
              l with
              Sun_arch.Arch.partitions =
                List.map
                  (fun (p : Sun_arch.Arch.partition) ->
                    { p with Sun_arch.Arch.accepts = `Roles [ "weight" ] })
                  l.Sun_arch.Arch.partitions;
            })
          a.Sun_arch.Arch.levels;
    }
  in
  let requests =
    [
      {|{"workload":"conv1d","arch":"toy","id":"search"}|};
      Printf.sprintf {|{"workload":"conv1d","arch":"toy","id":"eval","mapping":%s}|}
        (J.to_string good_mapping);
      Printf.sprintf {|{"workload":"conv1d","arch":"toy","id":"illegal-map","mapping":%s}|}
        (J.to_string tampered_mapping);
      Printf.sprintf {|{"workload":"conv1d","arch":%s,"id":"bad-arch"}|}
        (J.to_string (Codec.encode_arch weight_only_arch));
      {|{"workload":"conv1d",|};
    ]
  in
  let s, responses, _ = run_batch requests in
  Alcotest.(check int) "five requests" 5 s.Pipeline.requests;
  Alcotest.(check int) "two computed" 2 s.Pipeline.computed;
  Alcotest.(check int) "three errors" 3 s.Pipeline.errors;
  Alcotest.(check int) "no hits" 0 s.Pipeline.hits;
  let statuses = List.map (fun r -> ok (J.as_string (response_field "status" r))) responses in
  Alcotest.(check (list string)) "statuses"
    [ "computed"; "evaluated"; "error"; "error"; "error" ]
    statuses;
  (* the evaluation costs the exact mapping it was given *)
  let eval_resp = List.nth responses 1 in
  Alcotest.(check string) "evaluated mapping echoed" (J.to_string good_mapping)
    (J.to_string (response_field "mapping" eval_resp));
  Alcotest.(check string) "evaluated cost matches search"
    (J.to_string (Codec.encode_cost optimized.Opt.cost))
    (J.to_string (response_field "cost" eval_resp));
  (* static rejections carry 1-based line numbers and SAxxx diagnostics *)
  let diag_codes r =
    ok (J.as_list (response_field "diagnostics" r))
    |> List.map (fun d -> ok (J.as_string (response_field "code" d)))
  in
  let line_of r = ok (J.as_int (response_field "line" r)) in
  let illegal_map = List.nth responses 2 in
  Alcotest.(check int) "illegal mapping line" 3 (line_of illegal_map);
  Alcotest.(check bool) "illegal mapping raises SA003" true
    (List.mem "SA003" (diag_codes illegal_map));
  let bad_arch = List.nth responses 3 in
  Alcotest.(check int) "bad arch line" 4 (line_of bad_arch);
  Alcotest.(check bool) "bad arch raises SA030" true (List.mem "SA030" (diag_codes bad_arch));
  (* the malformed line reports where the JSON broke *)
  let malformed = List.nth responses 4 in
  Alcotest.(check int) "malformed line number" 5 (line_of malformed);
  let msg = ok (J.as_string (response_field "error" malformed)) in
  Alcotest.(check bool) "parse error locates by line and column" true
    (let has needle =
       let nl = String.length needle and hl = String.length msg in
       let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
       go 0
     in
     has "line 1" && has "column")

let test_pipeline_in_memory_dedup () =
  (* without a cache dir, repeats within one run still hit in memory *)
  let requests =
    [
      {|{"workload":"conv1d","arch":"toy"}|};
      {|{"workload":"conv1d","arch":"toy"}|};
      {|{"workload":"conv1d","arch":"toy"}|};
    ]
  in
  let s, _, _ = run_batch ~cache:(Cache.create ()) requests in
  Alcotest.(check int) "one search" 1 s.Pipeline.computed;
  Alcotest.(check int) "two memory hits" 2 s.Pipeline.hits;
  (* and with caching disabled, every request searches *)
  let s', _, _ = run_batch requests in
  Alcotest.(check int) "no cache: all computed" 3 s'.Pipeline.computed;
  Alcotest.(check bool) "no cache stats" true (s'.Pipeline.cache_stats = None)

(* Default request ids use the same 1-based numbering as the [line] field
   of error responses: the first input line is "line1", never "line0". *)
let test_pipeline_default_ids_one_based () =
  let requests =
    [
      {|{"workload":"conv1d","arch":"toy"}|};
      {|{"workload":"conv1d",|};
    ]
  in
  let _, responses, _ = run_batch ~cache:(Cache.create ()) requests in
  let id_of r = ok (J.as_string (response_field "id" r)) in
  Alcotest.(check string) "first line defaults to line1" "line1" (id_of (List.nth responses 0));
  let malformed = List.nth responses 1 in
  Alcotest.(check string) "default id matches line field" "line2" (id_of malformed);
  Alcotest.(check int) "line field agrees" 2 (ok (J.as_int (response_field "line" malformed)))

(* ------------------------------------------------------------------ *)
(* Pipeline: parallel serving                                           *)
(* ------------------------------------------------------------------ *)

(* wall_s is the one legitimately nondeterministic response field *)
let normalize_wall = function
  | J.Obj fields ->
    J.Obj (List.map (fun (k, v) -> if k = "wall_s" then (k, J.Int 0) else (k, v)) fields)
  | v -> v

let parity_requests () =
  let inline_workload = J.to_string (Codec.encode_workload conv1d) in
  [
    {|{"v":1,"id":"r1","workload":"conv1d","arch":"toy"}|};
    {|{"workload":"conv1d","arch":"toy"}|};
    {|{"workload":"matmul","arch":"toy","id":"r3","beam":4}|};
    {|{"workload":"nope","arch":"toy","id":"bad-workload"}|};
    "this line is not json";
    "";
    {|{"workload":"conv1d","arch":"nope","id":"bad-arch"}|};
    {|{"v":7,"workload":"matmul","arch":"toy","id":"bad-version"}|};
    Printf.sprintf {|{"workload":%s,"arch":"toy","id":"inline"}|} inline_workload;
    {|{"workload":"matmul","arch":"toy","beam":4}|};
  ]

let test_pipeline_jobs_parity () =
  let requests = parity_requests () in
  let s1, r1, _ =
    run_batch ~cache:(Cache.create ~dir:(fresh_dir "sun_parity_seq") ()) ~jobs:1 requests
  in
  let s4, r4, _ =
    run_batch ~cache:(Cache.create ~dir:(fresh_dir "sun_parity_par") ()) ~jobs:4 requests
  in
  Alcotest.(check int) "same requests" s1.Pipeline.requests s4.Pipeline.requests;
  Alcotest.(check int) "same hits" s1.Pipeline.hits s4.Pipeline.hits;
  Alcotest.(check int) "same computed" s1.Pipeline.computed s4.Pipeline.computed;
  Alcotest.(check int) "same errors" s1.Pipeline.errors s4.Pipeline.errors;
  Alcotest.(check int) "jobs recorded (seq)" 1 s1.Pipeline.jobs;
  Alcotest.(check int) "jobs recorded (par)" 4 s4.Pipeline.jobs;
  (* the single-writer cache discipline keeps the counters exact, not
     merely approximately right *)
  (match (s1.Pipeline.cache_stats, s4.Pipeline.cache_stats) with
  | Some a, Some b ->
    Alcotest.(check int) "same cache hits" a.Cache.hits b.Cache.hits;
    Alcotest.(check int) "same cache misses" a.Cache.misses b.Cache.misses;
    Alcotest.(check int) "same cache stores" a.Cache.stores b.Cache.stores
  | _ -> Alcotest.fail "expected cache stats on both runs");
  Alcotest.(check int) "same response count" (List.length r1) (List.length r4);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "response %d byte-identical (modulo wall_s)" i)
        (J.to_string (normalize_wall a))
        (J.to_string (normalize_wall b)))
    (List.combine r1 r4)

let test_pipeline_parallel_dedup () =
  (* three identical searches racing over four workers must still collapse
     to one computation: the in-flight fingerprint defers the other two
     until the first lands, exactly as a one-worker run would *)
  let requests =
    [
      {|{"workload":"conv1d","arch":"toy"}|};
      {|{"workload":"conv1d","arch":"toy"}|};
      {|{"workload":"conv1d","arch":"toy"}|};
    ]
  in
  let cache = Cache.create () in
  let s, responses, _ = run_batch ~cache ~jobs:4 requests in
  Alcotest.(check int) "one search" 1 s.Pipeline.computed;
  Alcotest.(check int) "two hits" 2 s.Pipeline.hits;
  Alcotest.(check int) "no errors" 0 s.Pipeline.errors;
  let st = Cache.stats cache in
  Alcotest.(check int) "exactly one cache miss" 1 st.Cache.misses;
  Alcotest.(check int) "exactly one store" 1 st.Cache.stores;
  Alcotest.(check int) "two cache hits" 2 st.Cache.hits;
  let statuses = List.map (fun r -> ok (J.as_string (response_field "status" r))) responses in
  Alcotest.(check (list string)) "statuses in input order" [ "computed"; "hit"; "hit" ] statuses;
  (* without a cache there is nothing to dedup against: parity with the
     one-worker no-cache behavior means every request searches *)
  let s', _, _ = run_batch ~jobs:4 requests in
  Alcotest.(check int) "no cache: all computed" 3 s'.Pipeline.computed

(* One workload spelled with two sets of dim names has one fingerprint,
   so the second spelling is a hit, answered in its own dim names with the
   stored cost's bytes. *)
let test_pipeline_dim_spellings_hit () =
  let spelled (dm, dn, dk) = matmul_like ~name:"mm" ~m:4 ~n:4 ~k:2 [ dm; dn; dk ] (dm, dn, dk) in
  let mnk = spelled ("M", "N", "K") and xyz = spelled ("X", "Y", "Z") in
  let request w =
    Printf.sprintf {|{"workload":%s,"arch":"toy"}|} (J.to_string (Codec.encode_workload w))
  in
  let cache = Cache.create () in
  let s, responses, _ = run_batch ~cache [ request mnk; request xyz; request mnk; request xyz ] in
  Alcotest.(check (list string)) "second spelling hits" [ "computed"; "hit"; "hit"; "hit" ]
    (List.map (fun r -> ok (J.as_string (response_field "status" r))) responses);
  Alcotest.(check int) "one search" 1 s.Pipeline.computed;
  Alcotest.(check int) "pipeline hits = cache hits" s.Pipeline.hits (Cache.stats cache).Cache.hits;
  let first = List.nth responses 0 and other = List.nth responses 1 in
  let mapping r w = Codec.decode_mapping w (response_field "mapping" r) in
  Alcotest.(check bool) "hit mapping in its own dim names" true
    (Result.is_ok (mapping other xyz) && Result.is_error (mapping other mnk));
  Alcotest.(check string) "cost byte-equal"
    (J.to_string (response_field "cost" first))
    (J.to_string (response_field "cost" other));
  Alcotest.(check string) "mapping renamed, not rescaled"
    (J.to_string (Codec.encode_mapping (ok (mapping first mnk))))
    (String.map (function 'X' -> 'M' | 'Y' -> 'N' | 'Z' -> 'K' | c -> c)
       (J.to_string (response_field "mapping" other)))

(* A crash-hook batch at one and at two workers: the same responses,
   modulo wall_s, each checked by [check]. *)
let crash_runs_agree ~requests ~check =
  let run jobs =
    let label = Printf.sprintf "jobs %d: " jobs in
    let s, responses, _ = run_batch ~cache:(Cache.create ()) ~jobs requests in
    check label s responses;
    List.map (fun r -> J.to_string (normalize_wall r)) responses
  in
  let one = run 1 in
  Alcotest.(check (list string)) "jobs 1 = jobs 2 (modulo wall_s)" one (run 2)

let test_pipeline_worker_crash_contained () =
  let requests =
    [
      {|{"workload":"conv1d","arch":"toy","id":"ok1"}|};
      {|{"workload":"matmul","arch":"toy","id":"boom","x-sunstone-test-crash":true}|};
      {|{"workload":"conv1d","arch":"toy","id":"ok2"}|};
    ]
  in
  crash_runs_agree ~requests ~check:(fun label s responses ->
      Alcotest.(check int) (label ^ "pipeline completed all three") 3 s.Pipeline.requests;
      Alcotest.(check int) (label ^ "crash is one error") 1 s.Pipeline.errors;
      Alcotest.(check int) (label ^ "first conv1d computed") 1 s.Pipeline.computed;
      Alcotest.(check int) (label ^ "second conv1d still hits") 1 s.Pipeline.hits;
      let statuses = List.map (fun r -> ok (J.as_string (response_field "status" r))) responses in
      Alcotest.(check (list string)) (label ^ "only the crashed request errors")
        [ "computed"; "error"; "hit" ]
        statuses;
      let crashed = List.nth responses 1 in
      Alcotest.(check string) (label ^ "crash echoes the request id") "boom"
        (ok (J.as_string (response_field "id" crashed)));
      Alcotest.(check int) (label ^ "crash reports its line") 2
        (ok (J.as_int (response_field "line" crashed)));
      Alcotest.(check bool) (label ^ "crash is named as such") true
        (contains_substring (ok (J.as_string (response_field "error" crashed))) "worker crashed"))

let test_pipeline_worker_crash_once_is_retried () =
  (* the worker dies mid-request on the first attempt only: the pool's
     retry must answer the request as if nothing happened *)
  let flag = Filename.temp_file "sun_pipe_crash_once" "" in
  let requests =
    [
      {|{"workload":"conv1d","arch":"toy","id":"steady"}|};
      Printf.sprintf {|{"workload":"matmul","arch":"toy","id":"flaky","x-sunstone-test-crash-once":%S}|}
        flag;
    ]
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists flag then Sys.remove flag) @@ fun () ->
  crash_runs_agree ~requests ~check:(fun label s responses ->
      Alcotest.(check int) (label ^ "no errors after retry") 0 s.Pipeline.errors;
      Alcotest.(check int) (label ^ "both computed") 2 s.Pipeline.computed;
      let flaky = List.nth responses 1 in
      Alcotest.(check string) (label ^ "retried request answered normally") "computed"
        (ok (J.as_string (response_field "status" flaky)));
      Alcotest.(check bool) (label ^ "crash flag consumed") false (Sys.file_exists flag);
      (* re-arm the hook for the next worker count *)
      close_out (open_out flag))

(* ------------------------------------------------------------------ *)
(* Transfer: cross-request warm starts                                 *)
(* ------------------------------------------------------------------ *)

module Transfer = Sun_serve.Transfer
module Tel = Sun_telemetry.Metrics

(* conv1d structure at chosen bounds, with renameable dims: the family
   mate of [conv1d] used to exercise positional dim correspondence. *)
let conv1d_sized ~name (dk, dc, dp, dr) (bk, bc, bp, br) =
  W.make ~name
    ~dims:[ (dk, bk); (dc, bc); (dp, bp); (dr, br) ]
    ~operands:
      [
        { W.name = "ifmap"; kind = `Input; indices = [ W.Dim dc; W.Affine [ (dp, 1); (dr, 1) ] ] };
        { W.name = "weight"; kind = `Input; indices = [ W.Dim dk; W.Dim dc; W.Dim dr ] };
        { W.name = "ofmap"; kind = `Output; indices = [ W.Dim dk; W.Dim dp ] };
      ]

let neighbor_doc ~config w a =
  let r = ok (Opt.optimize ~config w a) in
  J.Obj (("mapping", Codec.encode_mapping r.Opt.mapping) :: Transfer.stored_fields ~config w a)

let test_transfer_seed_of_doc () =
  let config = Opt.default_config in
  (* neighbor solved at catalog bounds; target doubles P and renames every
     dim — the doc's positional sdims must carry the factors across *)
  let doc = neighbor_doc ~config conv1d toy in
  let target = conv1d_sized ~name:"grown" ("A", "B", "U", "V") (4, 4, 28, 3) in
  Alcotest.(check string) "family mates" (Fp.structural ~config conv1d toy)
    (Fp.structural ~config target toy);
  (match Transfer.seed_of_doc ~config target toy doc with
  | None -> Alcotest.fail "expected a seed from a family mate"
  | Some levels -> (
    match M.make target levels with
    | Error msg -> Alcotest.failf "rescaled seed must be buildable: %s" msg
    | Ok m ->
      List.iter
        (fun d ->
          Alcotest.(check int) (d ^ " covered") (W.bound target d)
            (M.tile_at m ~level:(M.num_levels m - 1) d))
        (W.dim_names target);
      (match Model.evaluate target toy m with
      | Ok c -> Alcotest.(check bool) "seed scores" true (c.Model.energy_pj > 0.0)
      | Error msg -> Alcotest.failf "rescaled seed must score: %s" msg)));
  (* a doc missing the positional dim list yields no seed, silently *)
  let stripped =
    match doc with
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "sdims") fields)
    | _ -> assert false
  in
  Alcotest.(check bool) "doc without sdims is rejected" true
    (Transfer.seed_of_doc ~config target toy stripped = None);
  (* a doc computed by another version of the search is never a seed *)
  let stale =
    match doc with
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "search") fields @ [ ("search", J.Int 0) ])
    | _ -> assert false
  in
  Alcotest.(check bool) "doc from another search version is rejected" true
    (Transfer.seed_of_doc ~config target toy stale = None);
  (* arity mismatch (a different family would never be probed, but a
     corrupt doc could claim one) falls back to None, not an exception *)
  let mm = matmul_like ~name:"mm" ~m:12 ~n:8 ~k:5 [ "M"; "N"; "K" ] ("M", "N", "K") in
  Alcotest.(check bool) "arity mismatch is rejected" true
    (Transfer.seed_of_doc ~config mm toy doc = None)

let test_transfer_find_seed () =
  let config = Opt.default_config in
  let cache = Cache.create () in
  Alcotest.(check bool) "empty cache yields no seed" true
    (Transfer.find_seed ~cache ~config conv1d toy = None);
  Cache.store cache "n1" (neighbor_doc ~config conv1d toy);
  let target = conv1d_sized ~name:"grown" ("K", "C", "P", "R") (4, 4, 28, 3) in
  (match Transfer.find_seed ~cache ~config target toy with
  | None -> Alcotest.fail "expected a nearest-neighbor seed"
  | Some levels ->
    Alcotest.(check bool) "seed buildable" true
      (match M.make target levels with Ok _ -> true | Error _ -> false));
  (* exclude_self drops the member whose bounds equal the probe's *)
  Alcotest.(check bool) "probe finds own bounds without exclusion" true
    (Transfer.find_seed ~cache ~config conv1d toy <> None);
  Alcotest.(check bool) "exclude_self leaves nothing" true
    (Transfer.find_seed ~exclude_self:true ~cache ~config conv1d toy = None)

(* End-to-end: a batch holding two family mates. The second request must be
   seeded from the first's cached result (visible in telemetry), and the
   final EDP must be at least as good as a cacheless run's, which never
   seeds. *)
let test_pipeline_transfer_seeding () =
  let small = J.to_string (Codec.encode_workload conv1d) in
  let big =
    J.to_string (Codec.encode_workload (conv1d_sized ~name:"big" ("K", "C", "P", "R") (4, 4, 28, 3)))
  in
  let requests =
    [
      Printf.sprintf {|{"v":1,"id":"small","workload":%s,"arch":"toy"}|} small;
      Printf.sprintf {|{"v":1,"id":"big","workload":%s,"arch":"toy"}|} big;
    ]
  in
  let edp_of r =
    match response_field "cost" r with
    | J.Obj _ as c -> (match J.field "edp" c with Ok (J.Float e) -> e | _ -> Alcotest.fail "no edp")
    | _ -> Alcotest.fail "no cost"
  in
  Tel.set_enabled true;
  Tel.reset ();
  let seeded, r_on =
    Fun.protect
      ~finally:(fun () ->
        Tel.reset ();
        Tel.set_enabled false)
      (fun () ->
        let _, r_on, _ = run_batch ~cache:(Cache.create ()) requests in
        let snap = Tel.snapshot () in
        (List.assoc_opt "transfer.seeded" snap.Tel.s_counters, r_on))
  in
  Alcotest.(check (option int)) "second family mate was seeded" (Some 1) seeded;
  let _, r_cold, _ = run_batch requests in
  List.iter2
    (fun on cold ->
      Alcotest.(check bool)
        (Printf.sprintf "seeded EDP %.6g <= cold %.6g" (edp_of on) (edp_of cold))
        true
        (edp_of on <= edp_of cold *. (1.0 +. 1e-9)))
    r_on r_cold

(* ------------------------------------------------------------------ *)
(* Telemetry counter parity across --jobs                              *)
(* ------------------------------------------------------------------ *)

(* The namespaces whose totals must be independent of the worker count:
   optimizer.* and model.* counts are merged back from workers, serve.*
   counts are tallied in the parent. parpool.* is excluded because its
   per-worker counters depend on the worker count, and histograms are
   timings (their serve.* span counts are pinned per request by
   [test_one_classify_per_request]). *)
let parity_counters snap =
  let prefixed p name =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  List.filter
    (fun (name, _) -> List.exists (fun p -> prefixed p name) [ "optimizer."; "model."; "serve." ])
    snap.Tel.s_counters

(* Run [f] with telemetry enabled on a clean registry and return its result
   together with the parity-relevant counter totals it accumulated. *)
let with_telemetry f =
  Tel.set_enabled true;
  Tel.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tel.reset ();
      Tel.set_enabled false)
    (fun () ->
      let r = f () in
      (r, parity_counters (Tel.snapshot ())))

let test_telemetry_jobs_parity () =
  let requests = parity_requests () in
  let run jobs tag =
    with_telemetry (fun () ->
        run_batch ~cache:(Cache.create ~dir:(fresh_dir tag) ()) ~jobs requests)
  in
  let _, c1 = run 1 "sun_tel_seq" in
  let _, c4 = run 4 "sun_tel_par" in
  Alcotest.(check bool) "parity counters nonempty" true (c1 <> []);
  Alcotest.(check bool) "searches actually counted" true
    (match List.assoc_opt "optimizer.searches" c1 with Some n -> n > 0 | None -> false);
  Alcotest.(check (list (pair string int))) "jobs 4 counter totals = jobs 1" c1 c4

let test_telemetry_parity_under_crash_retry () =
  (* a worker dies mid-request on the first attempt, at one worker and at
     four: the crashed attempt's counts die with the process and the retry
     recounts from zero, so the totals must not depend on the worker count *)
  let run jobs tag =
    let flag = Filename.temp_file "sun_tel_crash_once" "" in
    let requests =
      [
        {|{"workload":"conv1d","arch":"toy","id":"steady"}|};
        Printf.sprintf
          {|{"workload":"matmul","arch":"toy","id":"flaky","x-sunstone-test-crash-once":%S}|}
          flag;
      ]
    in
    let (s, _, _), counters =
      with_telemetry (fun () ->
          run_batch ~cache:(Cache.create ~dir:(fresh_dir tag) ()) ~jobs requests)
    in
    if Sys.file_exists flag then Sys.remove flag;
    (s, counters)
  in
  let s1, c1 = run 1 "sun_tel_crash_seq" in
  let s4, c4 = run 4 "sun_tel_crash_par" in
  Alcotest.(check int) "retry absorbed the crash at jobs 1" 0 s1.Pipeline.errors;
  Alcotest.(check int) "retry absorbed the crash at jobs 4" 0 s4.Pipeline.errors;
  Alcotest.(check bool) "parity counters nonempty" true (c1 <> []);
  Alcotest.(check (list (pair string int))) "counter totals survive a crash+retry" c1 c4

(* ------------------------------------------------------------------ *)
(* Edf: earliest-deadline-first ready queue                            *)
(* ------------------------------------------------------------------ *)

module Edf = Sun_serve.Edf
module Server = Sun_serve.Server

let edf_drain q =
  let rec go acc =
    match Edf.pop_opt q with Some (_, x) -> go (x :: acc) | None -> List.rev acc
  in
  go []

let test_edf_ordering () =
  let q = Edf.create () in
  Alcotest.(check bool) "starts empty" true (Edf.is_empty q);
  Alcotest.(check bool) "pop_opt on empty" true (Edf.pop_opt q = None);
  Alcotest.(check bool) "pop on empty raises" true
    (match Edf.pop q with exception Edf.Empty -> true | _ -> false);
  Edf.push q ~deadline:5.0 ~seq:0 "late";
  Edf.push q ~deadline:1.0 ~seq:1 "urgent";
  Edf.push q ~deadline:3.0 ~seq:2 "middle";
  Alcotest.(check int) "length" 3 (Edf.length q);
  (match Edf.peek q with
  | Some (d, x) ->
    Alcotest.(check (float 0.0)) "peek deadline" 1.0 d;
    Alcotest.(check string) "peek payload" "urgent" x
  | None -> Alcotest.fail "peek on non-empty");
  Alcotest.(check (list string)) "pops by deadline" [ "urgent"; "middle"; "late" ] (edf_drain q);
  Alcotest.(check bool) "drained" true (Edf.is_empty q)

let test_edf_ties_fifo () =
  let q = Edf.create () in
  List.iteri (fun i name -> Edf.push q ~deadline:infinity ~seq:i name) [ "a"; "b"; "c"; "d" ];
  Alcotest.(check (list string)) "no deadline drains FIFO" [ "a"; "b"; "c"; "d" ] (edf_drain q);
  (* equal finite deadlines keep admission order; infinity sorts last *)
  Edf.push q ~deadline:2.0 ~seq:10 "x";
  Edf.push q ~deadline:infinity ~seq:11 "background";
  Edf.push q ~deadline:2.0 ~seq:12 "y";
  Alcotest.(check (list string)) "ties FIFO, deadlines first" [ "x"; "y"; "background" ]
    (edf_drain q)

let edf_qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"edf pop order = stable sort by (deadline, seq)" ~count:300
      (list (int_bound 5))
      (fun ds ->
        (* deadline buckets 0..4 plus infinity; seq = push index, so the
           reference order is a stable sort on deadline alone *)
        let entry i d = (i, if d = 5 then infinity else float_of_int d) in
        let q = Edf.create () in
        List.iteri (fun i d -> Edf.push q ~deadline:(snd (entry i d)) ~seq:i (entry i d)) ds;
        let expected =
          List.stable_sort (fun (_, d1) (_, d2) -> compare d1 d2) (List.mapi entry ds)
        in
        edf_drain q = expected);
  ]

(* ------------------------------------------------------------------ *)
(* Parpool under an event loop: lazy idle-death detection              *)
(* ------------------------------------------------------------------ *)

let test_parpool_idle_crash_lazy_respawn () =
  let pool = Parpool.create ~jobs:1 ~f:(fun () -> Unix.getpid ()) () in
  Fun.protect ~finally:(fun () -> Parpool.shutdown pool) @@ fun () ->
  Parpool.submit pool ~key:0 ();
  let pid =
    match Parpool.next pool with
    | 0, Parpool.Done pid -> pid
    | _ -> Alcotest.fail "expected the worker's pid"
  in
  Unix.kill pid Sys.sigkill;
  (* give the kernel a beat to tear the worker's pipe ends down *)
  Unix.sleepf 0.05;
  (* the dead worker is idle: its EOF-readable reply fd must not be offered
     to an external select (it would spin the accept loop), and a
     non-blocking poll must report nothing rather than wedge or raise *)
  Alcotest.(check int) "no busy fds while idle" 0 (List.length (Parpool.busy_fds pool));
  Alcotest.(check bool) "nothing completes while idle" true (Parpool.try_next pool = None);
  Alcotest.(check int) "pool still reports an idle slot" 1 (Parpool.idle pool);
  (* the next submit hits EPIPE, reaps, respawns and retries transparently *)
  Parpool.submit pool ~key:1 ();
  match Parpool.next pool with
  | 1, Parpool.Done pid' ->
    Alcotest.(check bool) "a fresh worker took over" true (pid' <> pid)
  | _ -> Alcotest.fail "submit after an idle death must still complete"

let test_parpool_child_fork_hook_closes_fds () =
  (* [a] is the caller's stand-in for a client connection: the pool's
     children must not keep [b] alive, or closing the parent's copy never
     delivers EOF on [a]. Respawned workers are the interesting case — the
     original bug leaked every conn fd into workers forked mid-serve. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let pool =
    Parpool.create
      ~on_child_fork:(fun () -> try Unix.close b with Unix.Unix_error (_, _, _) -> ())
      ~jobs:1
      ~f:(fun n ->
        if n = 0 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        n + 1)
      ()
  in
  Fun.protect ~finally:(fun () -> Parpool.shutdown pool) @@ fun () ->
  Parpool.submit pool ~key:0 0;
  (match Parpool.next pool with
  | 0, Parpool.Crashed -> ()
  | _ -> Alcotest.fail "the poisoned job must crash out");
  (* the worker now serving was forked while [b] was open in the parent *)
  Parpool.submit pool ~key:1 1;
  (match Parpool.next pool with
  | 1, Parpool.Done 2 -> ()
  | _ -> Alcotest.fail "respawned worker must serve");
  Unix.close b;
  match Unix.select [ a ] [] [] 5.0 with
  | [ _ ], _, _ ->
    Alcotest.(check int) "peer sees EOF" 0 (Unix.read a (Bytes.create 1) 0 1);
    Unix.close a
  | _ ->
    Unix.close a;
    Alcotest.fail "peer never saw EOF: a respawned worker still holds the fd"

(* ------------------------------------------------------------------ *)
(* Server: the daemon, driven in-process over real sockets             *)
(* ------------------------------------------------------------------ *)

let server_addr () =
  let path = Filename.temp_file "sun_srv" ".sock" in
  Sys.remove path;
  Server.Unix_socket path

let send_all fd lines =
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let b = Bytes.of_string payload in
  let rec w ofs =
    if ofs < Bytes.length b then w (ofs + Unix.write fd b ofs (Bytes.length b - ofs))
  in
  w 0;
  Unix.shutdown fd Unix.SHUTDOWN_SEND

let recv_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Unix.close fd;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))

(* In-process harness: [serve] is single-threaded, so every client writes
   its full request stream and half-closes BEFORE the loop starts; the
   responses sit in the socket buffers until [serve] returns (after
   [exit_after_conns] connections have been accepted, answered and
   closed), and are read back afterwards. *)
let serve_clients ?cache ?jobs ?max_queue ?max_conns ?now inputs =
  let addr = server_addr () in
  let listen_fd = ok (Server.listener addr) in
  Fun.protect ~finally:(fun () -> Server.close_listener addr listen_fd) @@ fun () ->
  let fds =
    List.map
      (fun lines ->
        let fd = ok (Server.connect addr) in
        send_all fd lines;
        fd)
      inputs
  in
  let summary =
    Server.serve ?cache ?jobs ?max_queue ?max_conns ?now
      ~exit_after_conns:(List.length inputs) ~listen_fd ()
  in
  (summary, List.map recv_all fds)

let parse_responses lines = List.map (fun l -> ok (J.of_string l)) lines

let statuses_of rs = List.map (fun r -> ok (J.as_string (response_field "status" r))) rs

let test_server_single_client_parity () =
  let requests = parity_requests () in
  let _, baseline, _ =
    run_batch ~cache:(Cache.create ~dir:(fresh_dir "sun_srv_base") ()) ~jobs:1 requests
  in
  let s, responses =
    serve_clients ~cache:(Cache.create ~dir:(fresh_dir "sun_srv_cold") ()) ~jobs:2 [ requests ]
  in
  let daemon =
    match responses with
    | [ lines ] -> parse_responses lines
    | _ -> Alcotest.fail "expected one client's responses"
  in
  Alcotest.(check int) "one connection" 1 s.Server.connections;
  Alcotest.(check int) "9 requests" 9 s.Server.requests;
  Alcotest.(check int) "2 computed" 2 s.Server.computed;
  Alcotest.(check int) "3 hits" 3 s.Server.hits;
  Alcotest.(check int) "4 errors" 4 s.Server.errors;
  Alcotest.(check int) "nothing shed or expired" 0 (s.Server.overloaded + s.Server.expired);
  Alcotest.(check int) "response count matches batch" (List.length baseline) (List.length daemon);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "response %d byte-identical to batch --jobs 1 (modulo wall_s)" i)
        (J.to_string (normalize_wall a))
        (J.to_string (normalize_wall b)))
    (List.combine baseline daemon)

(* Which client wins each compute is scheduling-dependent, so cross-client
   assertions also normalize hit-vs-computed; the dedup itself is pinned
   exactly by the summary counters. *)
let normalize_wall_status r =
  match normalize_wall r with
  | J.Obj fields ->
    J.Obj
      (List.map
         (fun (k, v) ->
           if k = "status" && (v = J.String "hit" || v = J.String "computed") then
             (k, J.String "answered")
           else (k, v))
         fields)
  | v -> v

let test_server_concurrent_clients_dedup () =
  let requests = parity_requests () in
  let _, baseline, _ =
    run_batch ~cache:(Cache.create ~dir:(fresh_dir "sun_srv_base2") ()) ~jobs:1 requests
  in
  let s, responses =
    serve_clients
      ~cache:(Cache.create ~dir:(fresh_dir "sun_srv_two") ())
      ~jobs:2 [ requests; requests ]
  in
  Alcotest.(check int) "two connections" 2 s.Server.connections;
  Alcotest.(check int) "18 requests" 18 s.Server.requests;
  (* the same two searches arrive from both clients: the shared in-flight
     table and cache must collapse them to one compute each *)
  Alcotest.(check int) "searches deduped across connections" 2 s.Server.computed;
  Alcotest.(check int) "every duplicate hits" 8 s.Server.hits;
  Alcotest.(check int) "errors doubled" 8 s.Server.errors;
  let expect = List.map (fun r -> J.to_string (normalize_wall_status r)) baseline in
  List.iteri
    (fun ci lines ->
      let got =
        List.map (fun l -> J.to_string (normalize_wall_status (ok (J.of_string l)))) lines
      in
      Alcotest.(check (list string))
        (Printf.sprintf "client %d answers identical to batch (modulo wall_s, hit/computed)" ci)
        expect got)
    responses

let test_server_admission_shed () =
  let lines =
    [
      {|{"workload":"conv1d","arch":"toy","id":"keep"}|};
      {|{"workload":"matmul","arch":"toy","id":"shed-me"}|};
    ]
  in
  let s, responses = serve_clients ~cache:(Cache.create ()) ~max_queue:1 [ lines ] in
  let rs =
    match responses with [ l ] -> parse_responses l | _ -> Alcotest.fail "one client"
  in
  Alcotest.(check (list string)) "second request shed" [ "computed"; "overloaded" ]
    (statuses_of rs);
  let shed = List.nth rs 1 in
  Alcotest.(check string) "shed echoes the request id" "shed-me"
    (ok (J.as_string (response_field "id" shed)));
  Alcotest.(check int) "shed reports the bound" 1 (ok (J.as_int (response_field "max_queue" shed)));
  Alcotest.(check int) "shed reports the queue depth" 1 (ok (J.as_int (response_field "queue" shed)));
  Alcotest.(check bool) "shed names the condition" true
    (contains_substring (ok (J.as_string (response_field "error" shed))) "overloaded");
  Alcotest.(check int) "summary counts the shed" 1 s.Server.overloaded;
  Alcotest.(check int) "shed is not an error" 0 s.Server.errors;
  Alcotest.(check int) "only the admitted request computed" 1 s.Server.computed

let test_server_worker_crash_respawns () =
  (* the crash hook kills the worker through a live socket; the daemon must
     answer the poisoned request with an error and keep serving the same
     connection from a respawned worker *)
  let lines =
    [
      {|{"workload":"matmul","arch":"toy","id":"boom","x-sunstone-test-crash":true}|};
      {|{"workload":"conv1d","arch":"toy","id":"after"}|};
    ]
  in
  let s, responses = serve_clients ~cache:(Cache.create ()) ~jobs:1 [ lines ] in
  let rs =
    match responses with [ l ] -> parse_responses l | _ -> Alcotest.fail "one client"
  in
  Alcotest.(check (list string)) "crash contained to its request" [ "error"; "computed" ]
    (statuses_of rs);
  let crashed = List.nth rs 0 in
  Alcotest.(check string) "crash echoes the id" "boom"
    (ok (J.as_string (response_field "id" crashed)));
  Alcotest.(check bool) "crash named as such" true
    (contains_substring (ok (J.as_string (response_field "error" crashed))) "worker crashed");
  Alcotest.(check int) "one error" 1 s.Server.errors;
  Alcotest.(check int) "follow-up computed on the respawned worker" 1 s.Server.computed

let test_server_deadline_expiry () =
  let lines =
    [
      {|{"workload":"conv1d","arch":"toy","id":"late","deadline_ms":0}|};
      {|{"workload":"matmul","arch":"toy","id":"ontime","deadline_ms":60000}|};
      {|{"workload":"conv1d","arch":"toy","id":"bad-deadline","deadline_ms":-5}|};
    ]
  in
  let s, responses = serve_clients ~cache:(Cache.create ()) [ lines ] in
  let rs =
    match responses with [ l ] -> parse_responses l | _ -> Alcotest.fail "one client"
  in
  Alcotest.(check (list string)) "expiry and rejection are per-request"
    [ "error"; "computed"; "error" ] (statuses_of rs);
  let late = List.nth rs 0 in
  Alcotest.(check string) "expired echoes the id" "late"
    (ok (J.as_string (response_field "id" late)));
  Alcotest.(check bool) "expired says deadline exceeded" true
    (contains_substring (ok (J.as_string (response_field "error" late))) "deadline exceeded");
  Alcotest.(check bool) "negative deadline rejected at admission" true
    (contains_substring
       (ok (J.as_string (response_field "error" (List.nth rs 2))))
       "deadline_ms");
  Alcotest.(check int) "one expiry" 1 s.Server.expired;
  Alcotest.(check int) "expiry and bad deadline are the errors" 2 s.Server.errors;
  Alcotest.(check int) "the deadline that fits computes" 1 s.Server.computed

let test_server_injected_clock () =
  (* a fake monotonic clock starting at an epoch far below wall time and
     ticking 1µs per read: if any deadline arithmetic leaked to the wall
     clock (Unix.gettimeofday ~ 1.75e9 s) the hour-long deadlines below
     would be instantly exceeded and everything would expire; on the
     injected clock nothing may expire and EDF order must hold *)
  let fake = ref 1000.0 in
  let now () =
    fake := !fake +. 1e-6;
    !fake
  in
  let lines =
    [
      {|{"workload":"conv1d","arch":"toy","id":"a","deadline_ms":3600000}|};
      {|{"workload":"matmul","arch":"toy","id":"b","deadline_ms":7200000}|};
    ]
  in
  let s, responses = serve_clients ~cache:(Cache.create ()) ~now [ lines ] in
  let rs =
    match responses with [ l ] -> parse_responses l | _ -> Alcotest.fail "one client"
  in
  Alcotest.(check (list string)) "both computed" [ "computed"; "computed" ] (statuses_of rs);
  Alcotest.(check int) "wall-clock steps expire nothing" 0 s.Server.expired;
  Alcotest.(check int) "no errors" 0 s.Server.errors

let test_server_stats_control () =
  let lines =
    [
      {|{"workload":"conv1d","arch":"toy","id":"r"}|};
      {|{"control":"stats","id":"st"}|};
      {|{"control":"flush","id":"nope"}|};
    ]
  in
  let s, responses = serve_clients ~cache:(Cache.create ()) [ lines ] in
  let rs =
    match responses with [ l ] -> parse_responses l | _ -> Alcotest.fail "one client"
  in
  Alcotest.(check (list string)) "stats answered in sequence, unknown control errors"
    [ "computed"; "stats"; "error" ] (statuses_of rs);
  let stats = List.nth rs 1 in
  Alcotest.(check string) "stats echoes the id" "st"
    (ok (J.as_string (response_field "id" stats)));
  let server_obj = response_field "server" stats in
  Alcotest.(check int) "live request counter" 1
    (ok (J.as_int (ok (J.field "requests" server_obj))));
  Alcotest.(check bool) "telemetry document attached" true
    (match J.field "telemetry" stats with Ok (J.Obj _) -> true | _ -> false);
  (* control traffic is not request traffic *)
  Alcotest.(check int) "controls not counted as requests" 1 s.Server.requests;
  Alcotest.(check int) "one compute" 1 s.Server.computed

let test_server_respawn_releases_conn_fds () =
  (* A worker respawned mid-connection (the crash hook kills one) must not
     inherit the connection fd: the client below reads conn 1 to EOF while
     the daemon is still alive (it still owes conn 2), which hangs forever
     if the respawned worker holds a duplicate of conn 1. The client's
     alarm turns that hang into a visible failure, and the parent's alarm
     force-drains the daemon so the suite cannot wedge either way. *)
  let addr = server_addr () in
  let listen_fd = ok (Server.listener addr) in
  Fun.protect ~finally:(fun () -> Server.close_listener addr listen_fd) @@ fun () ->
  match Unix.fork () with
  | 0 ->
    (try
       ignore (Unix.alarm 15);
       let fd1 = ok (Server.connect addr) in
       let r1 =
         Server.replay fd1
           [
             {|{"workload":"matmul","arch":"toy","id":"boom","x-sunstone-test-crash":true}|};
             {|{"workload":"conv1d","arch":"toy","id":"after"}|};
           ]
       in
       if List.length r1 <> 2 then Unix._exit 2;
       let fd2 = ok (Server.connect addr) in
       let r2 = Server.replay fd2 [ {|{"workload":"conv1d","arch":"toy","id":"again"}|} ] in
       if List.length r2 <> 1 then Unix._exit 3;
       Unix._exit 0
     with _ -> Unix._exit 4)
  | client ->
    let drain = ref false and force = ref false in
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           drain := true;
           force := true));
    ignore (Unix.alarm 30);
    let s =
      Server.serve ~cache:(Cache.create ()) ~jobs:1 ~drain_flag:drain ~force_flag:force
        ~exit_after_conns:2 ~listen_fd ()
    in
    ignore (Unix.alarm 0);
    Sys.set_signal Sys.sigalrm Sys.Signal_default;
    (match Unix.waitpid [] client with
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED c -> Alcotest.failf "client failed with exit code %d" c
    | _, _ -> Alcotest.fail "client hung reading to EOF and was killed");
    Alcotest.(check int) "both connections served" 2 s.Server.connections

let test_server_conn_cap_defers_accepts () =
  (* with the cap at one open connection the second client is accepted
     only after the first closes; deferral must lose nothing *)
  let requests = [ {|{"workload":"conv1d","arch":"toy","id":"x"}|} ] in
  let s, responses =
    serve_clients ~cache:(Cache.create ()) ~max_conns:1 [ requests; requests ]
  in
  Alcotest.(check int) "both connections served" 2 s.Server.connections;
  match List.map parse_responses responses with
  | [ [ r1 ]; [ r2 ] ] ->
    Alcotest.(check string) "first computes" "computed"
      (ok (J.as_string (response_field "status" r1)));
    Alcotest.(check string) "second hits the warm cache" "hit"
      (ok (J.as_string (response_field "status" r2)))
  | _ -> Alcotest.fail "each client gets exactly one response"

let test_server_force_flag_exits_immediately () =
  (* a client that connects and never half-closes holds a graceful drain
     open indefinitely; the force flag (second SIGTERM) must still exit *)
  let addr = server_addr () in
  let listen_fd = ok (Server.listener addr) in
  Fun.protect ~finally:(fun () -> Server.close_listener addr listen_fd) @@ fun () ->
  let fd = ok (Server.connect addr) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  @@ fun () ->
  let s = Server.serve ~force_flag:(ref true) ~listen_fd () in
  Alcotest.(check int) "nothing served" 0 s.Server.requests

let test_server_drain_grace_closes_stuck_client () =
  (* Thousands of bad-workload requests produce far more response bytes
     than a unix-socket send buffer holds, and the client never reads, so
     the connection stalls with a non-empty output queue. Once the
     injected clock puts the drain [drain_grace] past due the connection
     must be force-closed; before the grace existed this daemon looped
     forever (the alarm below makes that a failure, not a wedged suite). *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> failwith "drain grace never fired: daemon wedged"));
  ignore (Unix.alarm 30);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm Sys.Signal_default)
  @@ fun () ->
  let n = 2000 in
  let lines = List.init n (fun _ -> {|{"workload":"no-such-workload","arch":"toy"}|}) in
  let drain = ref false in
  let calls = ref 0 in
  (* the clock ticks once per admitted request: draining starts only once
     every line is in, so the response backlog exists before reads stop *)
  let now () =
    incr calls;
    if !calls >= n then drain := true;
    float_of_int !calls *. 1e-6
  in
  let addr = server_addr () in
  let listen_fd = ok (Server.listener addr) in
  Fun.protect ~finally:(fun () -> Server.close_listener addr listen_fd) @@ fun () ->
  let fd = ok (Server.connect addr) in
  send_all fd lines;
  let s = Server.serve ~now ~drain_flag:drain ~drain_grace:1e-6 ~listen_fd () in
  Alcotest.(check int) "every request was admitted" n s.Server.requests;
  Alcotest.(check bool) "responses flushed before the force-close arrive" true
    (recv_all fd <> [])

(* ------------------------------------------------------------------ *)

(* The catalog is built once: every lookup of a name, by [find_workload]
   or through [workloads], yields the same workload value. *)
let test_registry_built_once () =
  List.iter
    (fun (name, w) ->
      match (Registry.find_workload name, Registry.find_workload name) with
      | Ok a, Ok b ->
        Alcotest.(check bool) (name ^ ": repeated lookups share one value") true (a == b);
        Alcotest.(check bool) (name ^ ": the listing's value") true (a == w)
      | _ -> Alcotest.failf "%s does not resolve" name)
    (Registry.workloads ());
  Alcotest.(check bool) "one catalog" true (Registry.workloads () == Registry.workloads ())

(* The parent classifies each request once: one parse span per request and
   one gate span per request that parses, whatever the worker count, for
   duplicates parked in flight too, and in the daemon as in batch. *)
let test_one_classify_per_request () =
  let fixture =
    List.filter (fun l -> String.trim l <> "") (read_lines "fixtures/batch_mixed.jsonl")
  in
  (* 9 requests, of which r1, line 2, r3 and line 9 reach the gate; the
     duplicates park behind the first conv1d at more than one worker *)
  let dup = {|{"workload":"conv1d","arch":"toy","id":"dup"}|} in
  let requests = fixture @ [ dup; dup ] in
  let counts f =
    Tel.set_enabled true;
    Tel.reset ();
    Fun.protect
      ~finally:(fun () ->
        Tel.reset ();
        Tel.set_enabled false)
      (fun () ->
        f ();
        let snap = Tel.snapshot () in
        let spans name =
          match List.assoc_opt name snap.Tel.s_hists with Some h -> h.Tel.h_count | None -> 0
        in
        ( Option.value ~default:0 (List.assoc_opt "serve.requests" snap.Tel.s_counters),
          spans "serve.parse_s",
          spans "serve.gate_s" ))
  in
  let check what (requests, parses, gates) n =
    Alcotest.(check int) (what ^ ": requests") (11 * n) requests;
    Alcotest.(check int) (what ^ ": one parse per request") requests parses;
    Alcotest.(check int) (what ^ ": one gate per parsed request") (6 * n) gates
  in
  List.iter
    (fun jobs ->
      check (Printf.sprintf "batch --jobs %d" jobs)
        (counts (fun () -> ignore (run_batch ~cache:(Cache.create ()) ~jobs requests)))
        1)
    [ 1; 4 ];
  check "daemon, two connections"
    (counts (fun () ->
         ignore (serve_clients ~cache:(Cache.create ()) ~jobs:2 [ requests; requests ])))
    2

let () =
  Alcotest.run "sun_serve"
    [
      ( "json",
        [
          Alcotest.test_case "print/parse roundtrip" `Quick test_json_print_parse;
          Alcotest.test_case "parse forms" `Quick test_json_parse_forms;
          Alcotest.test_case "non-finite floats rejected" `Quick test_json_non_finite;
          Alcotest.test_case "float precision" `Quick test_json_float_precision;
        ] );
      ( "codec",
        [
          Alcotest.test_case "workload roundtrip" `Quick test_codec_workload;
          Alcotest.test_case "arch roundtrip" `Quick test_codec_arch;
          Alcotest.test_case "config roundtrip" `Quick test_codec_config;
          Alcotest.test_case "mapping roundtrip" `Quick test_codec_mapping;
          Alcotest.test_case "cost roundtrip" `Quick test_codec_cost;
          Alcotest.test_case "version rejection" `Quick test_codec_versioning;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "renaming invariance" `Quick test_fingerprint_renaming;
          Alcotest.test_case "affine structure" `Quick test_fingerprint_affine;
          Alcotest.test_case "request digests" `Quick test_fingerprint_request;
          Alcotest.test_case "structural keys" `Quick test_fingerprint_structural;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memory tier" `Quick test_cache_memory;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "disk persistence" `Quick test_cache_disk_persistence;
          Alcotest.test_case "corrupt entry tolerated" `Quick test_cache_corrupt_entry;
          Alcotest.test_case "truncated value file is a miss" `Quick
            test_cache_truncated_value_file;
          Alcotest.test_case "key sanitization" `Quick test_cache_key_sanitization;
          Alcotest.test_case "failed persist leaves dir clean" `Quick
            test_cache_failed_persist_leaves_dir_clean;
          Alcotest.test_case "shared dir, interleaved writers" `Quick
            test_cache_shared_dir_interleaved;
          Alcotest.test_case "concurrent fork writers" `Quick test_cache_concurrent_fork_writers;
          Alcotest.test_case "colliding keys disambiguated" `Quick test_cache_colliding_keys;
          Alcotest.test_case "nearest family member" `Quick test_cache_nearest_family;
        ] );
      ("cache properties", List.map QCheck_alcotest.to_alcotest cache_qcheck_props);
      ("fingerprint properties", List.map QCheck_alcotest.to_alcotest fingerprint_qcheck_props);
      ( "transfer",
        [
          Alcotest.test_case "seed_of_doc renames and rescales" `Quick test_transfer_seed_of_doc;
          Alcotest.test_case "find_seed" `Quick test_transfer_find_seed;
          Alcotest.test_case "pipeline seeds family mates" `Quick test_pipeline_transfer_seeding;
        ] );
      ( "parpool",
        [
          Alcotest.test_case "map matches in-process" `Quick test_parpool_map_matches_inprocess;
          Alcotest.test_case "exception becomes Failed" `Quick test_parpool_exception_is_failed;
          Alcotest.test_case "crash is contained" `Quick test_parpool_crash_is_contained;
          Alcotest.test_case "crash-once is retried" `Quick test_parpool_crash_retry_succeeds;
          Alcotest.test_case "idle crash detected lazily" `Quick
            test_parpool_idle_crash_lazy_respawn;
          Alcotest.test_case "fork hook closes caller fds in children" `Quick
            test_parpool_child_fork_hook_closes_fds;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "cold/warm bit-identical" `Quick test_pipeline_cold_warm;
          Alcotest.test_case "corruption degrades to miss" `Quick test_pipeline_corrupt_degrades;
          Alcotest.test_case "schema drift is miss" `Quick test_pipeline_schema_drift_is_miss;
          Alcotest.test_case "errors and inline workloads" `Quick test_pipeline_errors_and_inline;
          Alcotest.test_case "mixed batch with static analysis" `Quick
            test_pipeline_mixed_static_analysis;
          Alcotest.test_case "in-memory dedup" `Quick test_pipeline_in_memory_dedup;
          Alcotest.test_case "default ids are 1-based" `Quick test_pipeline_default_ids_one_based;
          Alcotest.test_case "--jobs 4 parity with --jobs 1" `Quick test_pipeline_jobs_parity;
          Alcotest.test_case "parallel in-flight dedup" `Quick test_pipeline_parallel_dedup;
          Alcotest.test_case "dim spellings share a hit" `Quick test_pipeline_dim_spellings_hit;
          Alcotest.test_case "worker crash contained" `Quick test_pipeline_worker_crash_contained;
          Alcotest.test_case "worker crash-once retried" `Quick
            test_pipeline_worker_crash_once_is_retried;
          Alcotest.test_case "stale search version is miss" `Quick
            test_pipeline_stale_search_is_miss;
          Alcotest.test_case "search version pins the golden fixture" `Quick
            (search_version_pins "fixtures/batch_mixed_expected.jsonl"
               "6dee50b2f2eeb3863584b26c44600420");
          Alcotest.test_case "search version pins the perf reference" `Quick
            (search_version_pins "../bench/perf/reference.json" "da098a05ce1662d633a75548e7d964c1");
          Alcotest.test_case "all-hit batch forks no worker" `Quick
            test_pipeline_all_hits_fork_nothing;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "--jobs counter parity" `Quick test_telemetry_jobs_parity;
          Alcotest.test_case "--jobs counter parity under crash+retry" `Quick
            test_telemetry_parity_under_crash_retry;
          Alcotest.test_case "one classify per request" `Quick test_one_classify_per_request;
        ] );
      ( "edf",
        [
          Alcotest.test_case "pops by deadline" `Quick test_edf_ordering;
          Alcotest.test_case "ties drain FIFO" `Quick test_edf_ties_fifo;
        ] );
      ("edf properties", List.map QCheck_alcotest.to_alcotest edf_qcheck_props);
      ("registry", [ Alcotest.test_case "catalog built once" `Quick test_registry_built_once ]);
      ( "server",
        [
          Alcotest.test_case "single client parity with batch --jobs 1" `Quick
            test_server_single_client_parity;
          Alcotest.test_case "concurrent clients dedup" `Quick
            test_server_concurrent_clients_dedup;
          Alcotest.test_case "admission control sheds" `Quick test_server_admission_shed;
          Alcotest.test_case "worker crash respawns under select" `Quick
            test_server_worker_crash_respawns;
          Alcotest.test_case "deadline expiry" `Quick test_server_deadline_expiry;
          Alcotest.test_case "injected clock governs deadlines" `Quick
            test_server_injected_clock;
          Alcotest.test_case "stats control request" `Quick test_server_stats_control;
          Alcotest.test_case "respawned worker leaks no conn fd" `Quick
            test_server_respawn_releases_conn_fds;
          Alcotest.test_case "conn cap defers accepts" `Quick
            test_server_conn_cap_defers_accepts;
          Alcotest.test_case "force flag exits immediately" `Quick
            test_server_force_flag_exits_immediately;
          Alcotest.test_case "drain grace closes a stuck client" `Quick
            test_server_drain_grace_closes_stuck_client;
        ] );
    ]
