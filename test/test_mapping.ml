module W = Sun_tensor.Workload
module C = Sun_tensor.Catalog
module M = Sun_mapping.Mapping

let conv1d = C.conv1d ~k:4 ~c:4 ~p:14 ~r:3 ()
let dims = [ "K"; "C"; "P"; "R" ]
let ones = List.map (fun d -> (d, 1)) dims

let lm ?(spatial = ones) ?(order = dims) temporal : M.level_mapping =
  let full = List.map (fun d -> match List.assoc_opt d temporal with Some f -> (d, f) | None -> (d, 1)) dims in
  let full_spatial =
    List.map (fun d -> match List.assoc_opt d spatial with Some f -> (d, f) | None -> (d, 1)) dims
  in
  { M.temporal = full; order; spatial = full_spatial }

(* the paper's Algorithm 4 mapping: L1 tile (K2,P7,C2,R3), L2 loops P2 K2 C2 *)
let algorithm4 =
  M.make_exn conv1d
    [
      lm [ ("K", 2); ("P", 7); ("C", 2); ("R", 3) ];
      lm ~order:[ "P"; "K"; "C"; "R" ] [ ("K", 2); ("P", 2); ("C", 2) ];
      lm [];
    ]

let test_make_ok () =
  Alcotest.(check int) "levels" 3 (M.num_levels algorithm4);
  Alcotest.(check int) "tile K at L1" 2 (M.tile_at algorithm4 ~level:0 "K");
  Alcotest.(check int) "tile K at L2" 4 (M.tile_at algorithm4 ~level:1 "K");
  Alcotest.(check int) "top tile P" 14 (M.tile_at algorithm4 ~level:2 "P");
  Alcotest.(check int) "top equals bound" (W.bound conv1d "P") (M.tile_at algorithm4 ~level:2 "P")

let test_make_rejects () =
  let bad_product =
    M.make conv1d [ lm [ ("K", 3) ]; lm []; lm [ ("C", 4); ("P", 14); ("R", 3) ] ]
  in
  (match bad_product with
  | Error msg -> Alcotest.(check bool) "names dim" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected product violation");
  let bad_order =
    M.make conv1d
      [
        { M.temporal = ones; order = [ "K"; "C"; "P" ]; spatial = ones };
        lm [];
        lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
      ]
  in
  (match bad_order with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected order violation");
  let bad_factor = M.make conv1d [ lm [ ("K", 0) ]; lm []; lm [] ] in
  match bad_factor with Error _ -> () | Ok _ -> Alcotest.fail "expected factor violation"

let expect_error what = function
  | Error msg -> Alcotest.(check bool) (what ^ " names the violation") true (String.length msg > 0)
  | Ok _ -> Alcotest.failf "%s: expected rejection" what

let test_make_missing_dimension () =
  (* a temporal factor list that omits a workload dimension entirely *)
  let missing_r d = List.filter (fun (d', _) -> d' <> d) ones in
  expect_error "missing dim in temporal"
    (M.make conv1d
       [
         { M.temporal = missing_r "R"; order = dims; spatial = ones };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ]);
  (* an unknown extra dimension is just as invalid *)
  expect_error "unknown dim in temporal"
    (M.make conv1d
       [
         { M.temporal = ("Z", 1) :: ones; order = dims; spatial = ones };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ]);
  expect_error "missing dim in spatial"
    (M.make conv1d
       [
         { M.temporal = ones; order = dims; spatial = missing_r "K" };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ])

let test_make_product_mismatch () =
  (* per-dimension factor product must equal the workload bound *)
  expect_error "product under bound"
    (M.make conv1d [ lm [ ("P", 7) ]; lm []; lm [ ("K", 4); ("C", 4); ("R", 3) ] ]);
  expect_error "product over bound"
    (M.make conv1d
       [ lm [ ("P", 14) ]; lm [ ("P", 2) ]; lm [ ("K", 4); ("C", 4); ("R", 3) ] ])

let test_make_duplicate_order () =
  expect_error "duplicate dims in order"
    (M.make conv1d
       [
         { M.temporal = ones; order = [ "K"; "K"; "C"; "P" ]; spatial = ones };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ]);
  expect_error "order with foreign dim"
    (M.make conv1d
       [
         { M.temporal = ones; order = [ "K"; "C"; "P"; "Z" ]; spatial = ones };
         lm [];
         lm [ ("K", 4); ("C", 4); ("P", 14); ("R", 3) ];
       ])

let test_footprints () =
  (* L1 tile of Algorithm 4: ofmap 7*2, weight 2*2*3, ifmap (7+3-1)*2 *)
  let fp name = M.footprint_at conv1d algorithm4 ~level:0 (W.find_operand conv1d name) in
  Alcotest.(check (float 0.0)) "ofmap" 14.0 (fp "ofmap");
  Alcotest.(check (float 0.0)) "weight" 12.0 (fp "weight");
  Alcotest.(check (float 0.0)) "ifmap" 18.0 (fp "ifmap")

let test_spatial () =
  let m =
    M.make_exn conv1d
      [
        lm [ ("P", 7); ("R", 3) ];
        lm ~spatial:[ ("K", 2); ("C", 2) ] [ ("K", 2); ("C", 2); ("P", 2) ];
        lm [];
      ]
  in
  Alcotest.(check int) "spatial product L2" 4 (M.spatial_product m ~level:1);
  Alcotest.(check int) "total spatial" 4 (M.total_spatial m);
  (* spatial factors at level 1 are part of the level-1 tile *)
  Alcotest.(check int) "tile K at L2 includes unroll" 4 (M.tile_at m ~level:1 "K")

let test_single_level () =
  let m = M.single_level conv1d ~num_levels:3 in
  Alcotest.(check int) "levels" 3 (M.num_levels m);
  Alcotest.(check int) "inner tile is 1" 1 (M.tile_at m ~level:1 "P");
  Alcotest.(check int) "top covers bound" 14 (M.tile_at m ~level:2 "P")

let test_loops_outermost_first () =
  let loops = M.loops_outermost_first algorithm4 in
  (* bound-1 loops are dropped; outermost (highest level) first *)
  Alcotest.(check bool) "no unit loops" true (List.for_all (fun (_, _, b) -> b > 1) loops);
  let levels = List.map (fun (l, _, _) -> l) loops in
  Alcotest.(check bool) "descending levels" true (List.sort (fun a b -> compare b a) levels = levels);
  match loops with
  | (1, "P", 2) :: _ -> ()
  | (l, d, b) :: _ -> Alcotest.failf "outermost is L%d %s:%d, expected L1 P:2" l d b
  | [] -> Alcotest.fail "no loops"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pp_roundtrip_info () =
  let s = M.to_string algorithm4 in
  Alcotest.(check bool) "mentions L2 loops" true (contains s "for P in 2");
  Alcotest.(check bool) "mentions L1 tile loop" true (contains s "for R in 3")

let test_complete_at_top () =
  (* a prefix with only level 0 tiled: the residual lands at the top level,
     whose own temporal factors are kept and whose list comes back in
     workload order *)
  let prefix =
    [|
      lm [ ("K", 2); ("P", 7); ("R", 3) ];
      lm ~spatial:[ ("C", 2) ] [];
      { M.temporal = [ ("P", 2); ("K", 1); ("R", 1); ("C", 1) ]; order = dims; spatial = ones };
    |]
  in
  let completed = M.complete_at_top conv1d prefix in
  Alcotest.(check (list (pair string int)))
    "top temporal" [ ("K", 2); ("C", 2); ("P", 2); ("R", 1) ] completed.(2).M.temporal;
  Alcotest.(check bool) "lower levels shared" true (completed.(0) == prefix.(0));
  Alcotest.(check (list (pair string int)))
    "input untouched" [ ("P", 2); ("K", 1); ("R", 1); ("C", 1) ] prefix.(2).M.temporal;
  match M.make conv1d (Array.to_list completed) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "completion rejected: %s" msg

(* Random [Mapping.make] inputs for the differential against
   [Mapping_ref]: a workload of 1-6 dims, a canonical mapping of 1-4
   levels (each bound split into per-level temporal x spatial divisors),
   then 0-3 corruptions of the kinds the validator must catch or accept —
   entries moved to the list head (refine's [set]), shuffled lists, dropped,
   duplicated and unknown dims, factors <= 0 and wrong products. Dim names
   are sometimes fresh copies, so matching cannot rely on sharing. *)
let make_case =
  let open QCheck.Gen in
  let pool = [| "A"; "B"; "C"; "D"; "E"; "F" |] in
  let* n = 1 -- 6 in
  let* bounds = list_repeat n (oneofl [ 1; 2; 3; 4; 6; 8; 12 ]) in
  let names = Array.to_list (Array.sub pool 0 n) in
  let w =
    W.make ~name:"rand" ~dims:(List.combine names bounds)
      ~operands:[ { W.name = "out"; kind = `Output; indices = List.map (fun d -> W.Dim d) names } ]
  in
  let* nlevels = 1 -- 4 in
  (* per dim, one (temporal, spatial) pair per level multiplying to the bound *)
  let split b =
    let rec go rem l =
      if l = 1 then
        map (fun s -> [ (rem / s, s) ]) (oneofl (Sun_util.Factor.divisors rem))
      else
        let* t = oneofl (Sun_util.Factor.divisors rem) in
        let* s = oneofl (Sun_util.Factor.divisors (rem / t)) in
        map (fun rest -> (t, s) :: rest) (go (rem / (t * s)) (l - 1))
    in
    go b nlevels
  in
  let* splits = flatten_l (List.map split bounds) in
  let* fresh = bool in
  let name d = if fresh then String.init (String.length d) (String.get d) else d in
  let* orders = list_repeat nlevels (shuffle_l names) in
  let levels =
    List.init nlevels (fun l ->
        let pick f = List.map2 (fun d sp -> (name d, f (List.nth sp l))) names splits in
        {
          M.temporal = pick fst;
          order = List.map name (List.nth orders l);
          spatial = pick snd;
        })
  in
  let corrupt_assoc assoc =
    let* i = 0 -- max 0 (List.length assoc - 1) in
    let nth = List.nth_opt assoc i in
    let without = List.filteri (fun j _ -> j <> i) assoc in
    oneof
      [
        (match nth with Some e -> return (e :: without) | None -> return assoc);
        shuffle_l assoc;
        return without;
        (match nth with Some e -> return (e :: assoc) | None -> return assoc);
        map (fun f -> ("Z", f) :: assoc) (1 -- 2);
        map
          (fun f -> List.mapi (fun j (d, g) -> if j = i then (d, f) else (d, g)) assoc)
          (oneofl [ 0; -1; -3 ]);
        return (List.mapi (fun j (d, g) -> if j = i then (d, g * 2) else (d, g)) assoc);
      ]
  in
  let corrupt_order order =
    let* i = 0 -- max 0 (List.length order - 1) in
    let without = List.filteri (fun j _ -> j <> i) order in
    oneof
      [
        shuffle_l order;
        return without;
        return (match List.nth_opt order i with Some d -> d :: order | None -> order);
        return ("Z" :: without);
      ]
  in
  let corrupt levels =
    let* l = 0 -- (List.length levels - 1) in
    let* field = 0 -- 2 in
    let lm = List.nth levels l in
    let* lm' =
      match field with
      | 0 -> map (fun temporal -> { lm with M.temporal }) (corrupt_assoc lm.M.temporal)
      | 1 -> map (fun spatial -> { lm with M.spatial }) (corrupt_assoc lm.M.spatial)
      | _ -> map (fun order -> { lm with M.order }) (corrupt_order lm.M.order)
    in
    return (List.mapi (fun j x -> if j = l then lm' else x) levels)
  in
  let* k = frequency [ (2, return 0); (3, return 1); (1, 2 -- 3) ] in
  let rec apply k levels = if k = 0 then return levels else corrupt levels >>= apply (k - 1) in
  map (fun levels -> (w, levels)) (apply k levels)

let print_make_case (w, levels) =
  let assoc xs = String.concat " " (List.map (fun (d, f) -> Printf.sprintf "%s:%d" d f) xs) in
  Printf.sprintf "dims [%s]\n%s" (assoc w.W.dims)
    (String.concat "\n"
       (List.mapi
          (fun i lm ->
            Printf.sprintf "L%d temporal [%s] order [%s] spatial [%s]" i (assoc lm.M.temporal)
              (String.concat " " lm.M.order) (assoc lm.M.spatial))
          levels))

(* Random packed rows for the row check: valid rows of a 1-6 dim workload
   over 1-4 levels (the split [make_case] uses, orders as dim positions),
   then 0-2 corruptions: a factor set to 0 or below, two factors of one dim
   both negated (the product is kept, so only the sign test can reject
   it), a factor doubled, an order entry repeated (overwriting another or
   appended) or missing. *)
let rows_case =
  let open QCheck.Gen in
  let pool = [| "A"; "B"; "C"; "D"; "E"; "F" |] in
  let* n = 1 -- 6 in
  let* bounds = list_repeat n (oneofl [ 1; 2; 3; 4; 6; 8; 12 ]) in
  let names = Array.to_list (Array.sub pool 0 n) in
  let w =
    W.make ~name:"rand" ~dims:(List.combine names bounds)
      ~operands:[ { W.name = "out"; kind = `Output; indices = List.map (fun d -> W.Dim d) names } ]
  in
  let* nlevels = 1 -- 4 in
  let split b =
    let rec go rem l =
      if l = 1 then map (fun s -> [ (rem / s, s) ]) (oneofl (Sun_util.Factor.divisors rem))
      else
        let* t = oneofl (Sun_util.Factor.divisors rem) in
        let* s = oneofl (Sun_util.Factor.divisors (rem / t)) in
        map (fun rest -> (t, s) :: rest) (go (rem / (t * s)) (l - 1))
    in
    go b nlevels
  in
  let* splits = flatten_l (List.map split bounds) in
  let splits = Array.of_list (List.map Array.of_list splits) in
  let* orders = list_repeat nlevels (shuffle_l (List.init n Fun.id)) in
  let factors f = Array.init nlevels (fun l -> Array.init n (fun j -> f splits.(j).(l))) in
  let rows =
    {
      M.Rows.temporal = factors fst;
      spatial = factors snd;
      order = Array.of_list (List.map Array.of_list orders);
    }
  in
  let replace a i x =
    let a = Array.copy a in
    a.(i) <- x;
    a
  in
  let corrupt (r : M.Rows.t) =
    let* l = 0 -- (nlevels - 1) in
    let* j = 0 -- (n - 1) in
    let* j' = 0 -- (n - 1) in
    let factor f =
      let* spatial = bool in
      let rows = if spatial then r.M.Rows.spatial else r.M.Rows.temporal in
      let changed = replace rows l (replace rows.(l) j (f rows.(l).(j))) in
      return
        (if spatial then { r with M.Rows.spatial = changed }
         else { r with M.Rows.temporal = changed })
    in
    let order o = return { r with M.Rows.order = replace r.M.Rows.order l o } in
    (* an earlier corruption may have changed this order's length *)
    let o = r.M.Rows.order.(l) in
    let len = Array.length o in
    let i = j mod max 1 len and i' = j' mod max 1 len in
    oneof
      ([
         (let* f = oneofl [ 0; -1; -3 ] in
          factor (fun _ -> f));
         factor (fun f -> f * 2);
         (* two distinct slots of dim [j]: slot [2l] is level [l]'s temporal
            factor, [2l + 1] its spatial one *)
         (let* a = 0 -- ((2 * nlevels) - 1) in
          let* b = 0 -- ((2 * nlevels) - 2) in
          let b = if b >= a then b + 1 else b in
          let negate (r : M.Rows.t) slot =
            let l = slot / 2 in
            if slot mod 2 = 0 then
              let t = r.M.Rows.temporal in
              { r with M.Rows.temporal = replace t l (replace t.(l) j (-t.(l).(j))) }
            else
              let s = r.M.Rows.spatial in
              { r with M.Rows.spatial = replace s l (replace s.(l) j (-s.(l).(j))) }
          in
          return (negate (negate r a) b));
       ]
      @
      if len = 0 then []
      else
        [
          order (replace o i o.(i'));
          order (Array.append o [| o.(i') |]);
          order (Array.of_list (List.filteri (fun x _ -> x <> i) (Array.to_list o)));
        ])
  in
  let* k = frequency [ (2, return 0); (3, return 1); (1, return 2) ] in
  let rec apply k r = if k = 0 then return r else corrupt r >>= apply (k - 1) in
  map (fun r -> (w, r)) (apply k rows)

let print_rows_case (w, (r : M.Rows.t)) =
  let row a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "dims [%s]\n%s"
    (String.concat " " (List.map (fun (d, b) -> Printf.sprintf "%s:%d" d b) w.W.dims))
    (String.concat "\n"
       (List.init (Array.length r.M.Rows.temporal) (fun l ->
            Printf.sprintf "L%d temporal [%s] order [%s] spatial [%s]" l (row r.M.Rows.temporal.(l))
              (row r.M.Rows.order.(l)) (row r.M.Rows.spatial.(l)))))

(* The optimizer's split of the row check: each factor and order row is
   checked where it is made, and the naive completion checks only its
   products. Cases are [rows_case]'s rows (a valid split with corrupted
   tile, spatial or order rows; a doubled factor also breaks the
   completion's products) taken as a prefix, half of them with the top
   temporal row reset to ones, as below the top pass, so the completion
   places every dim's residual there. *)
let completion_case =
  let open QCheck.Gen in
  let* w, (r : M.Rows.t) = rows_case in
  let* below_top = bool in
  let temporal = Array.copy r.M.Rows.temporal in
  let top = Array.length temporal - 1 in
  if below_top then temporal.(top) <- Array.make (List.length w.W.dims) 1;
  return (w, { r with M.Rows.temporal })

let qcheck_props =
  let open QCheck in
  let factor_split n =
    (* random (a, b) with a*b = n *)
    Gen.map
      (fun i ->
        let ds = Sun_util.Factor.divisors n in
        let a = List.nth ds (i mod List.length ds) in
        (a, n / a))
      Gen.(0 -- 100)
  in
  [
    Test.make ~name:"make agrees with the list-based reference" ~count:2000
      (make ~print:print_make_case make_case)
      (fun (w, levels) ->
        match (M.make w levels, Mapping_ref.make w levels) with
        | Ok a, Ok b -> a.M.levels = b.M.levels
        | Error a, Error b -> String.equal a b || Test.fail_reportf "%S vs reference %S" a b
        | Ok _, Error e -> Test.fail_reportf "accepted; reference rejects: %s" e
        | Error e, Ok _ -> Test.fail_reportf "rejected (%s); reference accepts" e);
    Test.make ~name:"row check agrees with make" ~count:2000
      (make ~print:print_rows_case rows_case)
      (fun (w, r) ->
        let bounds = Array.of_list (List.map snd w.W.dims) in
        match M.make w (M.Rows.to_levels w r) with
        | Ok m ->
          (M.Rows.valid ~bounds r || Test.fail_report "row check rejects; make accepts")
          && (M.Rows.of_levels w m.M.levels = r
             || Test.fail_report "of_levels does not invert to_levels")
        | Error e ->
          (not (M.Rows.valid ~bounds r))
          || Test.fail_reportf "row check accepts; make rejects: %s" e);
    Test.make ~name:"checks at creation plus the completion's = row check" ~count:2000
      (make ~print:print_rows_case completion_case)
      (fun (w, r) ->
        let bounds = Array.of_list (List.map snd w.W.dims) in
        let n = Array.length bounds in
        let row = Array.make n 0 in
        let products = M.Rows.complete_into ~bounds r row in
        let made =
          Array.for_all (M.Rows.factors_ok n) r.M.Rows.temporal
          && Array.for_all (M.Rows.factors_ok n) r.M.Rows.spatial
          && Array.for_all (M.Rows.order_ok n) r.M.Rows.order
        in
        let temporal = Array.copy r.M.Rows.temporal in
        temporal.(Array.length temporal - 1) <- row;
        let valid = M.Rows.valid ~bounds { r with M.Rows.temporal } in
        (made && products) = valid
        || Test.fail_reportf "rows made ok %b, completion products %b, row check %b" made
             products valid);
    Test.make ~name:"tile_at top always equals bound" ~count:100
      (make Gen.(tup2 (factor_split 12) (factor_split 8)))
      (fun ((k1, k2), (p1, p2)) ->
        let w = C.matmul ~m:12 ~n:8 ~k:5 () in
        let dims = [ "M"; "N"; "K" ] in
        let ones = List.map (fun d -> (d, 1)) dims in
        let level t = { M.temporal = t; order = dims; spatial = ones } in
        let m =
          M.make_exn w
            [
              level [ ("M", k1); ("N", p1); ("K", 5) ];
              level [ ("M", k2); ("N", p2); ("K", 1) ];
            ]
        in
        M.tile_at m ~level:1 "M" = 12 && M.tile_at m ~level:1 "N" = 8);
    Test.make ~name:"footprint_at non-decreasing in level" ~count:100
      (make Gen.(tup2 (factor_split 12) (factor_split 8)))
      (fun ((k1, k2), (p1, p2)) ->
        let w = C.matmul ~m:12 ~n:8 ~k:5 () in
        let dims = [ "M"; "N"; "K" ] in
        let ones = List.map (fun d -> (d, 1)) dims in
        let level t = { M.temporal = t; order = dims; spatial = ones } in
        let m =
          M.make_exn w
            [
              level [ ("M", k1); ("N", p1); ("K", 1) ];
              level [ ("M", k2); ("N", p2); ("K", 5) ];
            ]
        in
        List.for_all
          (fun op ->
            M.footprint_at w m ~level:0 op <= M.footprint_at w m ~level:1 op)
          w.W.operands);
  ]

let () =
  Alcotest.run "sun_mapping"
    [
      ( "structure",
        [
          Alcotest.test_case "make ok" `Quick test_make_ok;
          Alcotest.test_case "make rejects" `Quick test_make_rejects;
          Alcotest.test_case "missing dimension" `Quick test_make_missing_dimension;
          Alcotest.test_case "factor product mismatch" `Quick test_make_product_mismatch;
          Alcotest.test_case "duplicate dims in order" `Quick test_make_duplicate_order;
          Alcotest.test_case "single_level" `Quick test_single_level;
          Alcotest.test_case "complete_at_top" `Quick test_complete_at_top;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "footprints" `Quick test_footprints;
          Alcotest.test_case "spatial" `Quick test_spatial;
          Alcotest.test_case "loops flattening" `Quick test_loops_outermost_first;
          Alcotest.test_case "pretty printing" `Quick test_pp_roundtrip_info;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
