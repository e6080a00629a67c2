open Sun_util

let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let test_divisors () =
  check_list "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Factor.divisors 12);
  check_list "divisors 1" [ 1 ] (Factor.divisors 1);
  check_list "divisors 7" [ 1; 7 ] (Factor.divisors 7);
  check_list "divisors 36" [ 1; 2; 3; 4; 6; 9; 12; 18; 36 ] (Factor.divisors 36)

let test_prime_factorization () =
  Alcotest.(check (list (pair int int)))
    "12 = 2^2 * 3" [ (2, 2); (3, 1) ]
    (Factor.prime_factorization 12);
  Alcotest.(check (list (pair int int))) "1 has no factors" [] (Factor.prime_factorization 1);
  Alcotest.(check (list (pair int int))) "97 prime" [ (97, 1) ] (Factor.prime_factorization 97)

let test_count_divisors () =
  List.iter
    (fun n -> check_int (string_of_int n) (List.length (Factor.divisors n)) (Factor.count_divisors n))
    [ 1; 2; 12; 36; 97; 360; 1024 ]

let test_splits () =
  check_int "splits 12 2" 6 (List.length (Factor.splits 12 2));
  check_int "splits 1 3" 1 (List.length (Factor.splits 1 3));
  List.iter
    (fun fs -> check_int "product" 12 (List.fold_left ( * ) 1 fs))
    (Factor.splits 12 3);
  check_int "count matches enumeration" (List.length (Factor.splits 24 3)) (Factor.count_splits 24 3)

let test_next_divisor () =
  Alcotest.(check (option int)) "after 2 in 12" (Some 3) (Factor.next_divisor 12 2);
  Alcotest.(check (option int)) "after 6 in 12" (Some 12) (Factor.next_divisor 12 6);
  Alcotest.(check (option int)) "after 12 in 12" None (Factor.next_divisor 12 12)

let test_cartesian () =
  check_int "2x3" 6 (List.length (Listx.cartesian [ [ 1; 2 ]; [ 3; 4; 5 ] ]));
  Alcotest.(check (list (list int))) "empty basis" [ [] ] (Listx.cartesian []);
  Alcotest.(check (list (list int)))
    "order preserved"
    [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (List.sort compare (Listx.cartesian [ [ 1; 2 ]; [ 3; 4 ] ]))

let test_permutations () =
  check_int "3! perms" 6 (List.length (Listx.permutations [ 1; 2; 3 ]));
  check_int "unique" 6 (List.length (Listx.unique compare (Listx.permutations [ 1; 2; 3 ])));
  Alcotest.(check (list (list int)))
    "limit keeps the first, in order"
    [ [ 1; 2; 3 ]; [ 1; 3; 2 ]; [ 2; 1; 3 ] ]
    (Listx.permutations ~limit:3 [ 1; 2; 3 ])

let test_min_by () =
  Alcotest.(check (option int)) "min" (Some 3) (Listx.min_by float_of_int [ 5; 3; 9 ]);
  Alcotest.(check (option int)) "empty" None (Listx.min_by float_of_int []);
  (* ties keep the first occurrence *)
  Alcotest.(check (option (pair int string)))
    "deterministic tie" (Some (1, "a"))
    (Listx.min_by (fun (k, _) -> float_of_int k) [ (1, "a"); (1, "b") ])

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let t = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int t 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

(* Golden first draws for a fixed seed: rejection sampling must not have
   perturbed existing sequences (a first draw in range returns exactly what
   the pre-rejection implementation returned). *)
let test_rng_sequence_stability () =
  let t = Rng.create 42 in
  check_list "seed 42, bound 1000"
    [ 853; 72; 964; 941; 812; 265; 231; 977 ]
    (List.init 8 (fun _ -> Rng.int t 1000))

let test_rng_uniformity_smoke () =
  (* with the old modulo bias this is exact-uniform only when the bound
     divides 2^62; the rejection loop makes every bucket fair *)
  let t = Rng.create 11 in
  let buckets = Array.make 3 0 in
  for _ = 1 to 30000 do
    let v = Rng.int t 3 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near 10000 (got %d)" i n)
        true
        (abs (n - 10000) < 500))
    buckets

let test_rng_large_bound_rejection_path () =
  (* bound = 3 * 2^60 rejects ~25% of raw draws: the redraw loop must
     terminate and stay in range even when rejection is frequent *)
  let big = 0x3000_0000_0000_0000 in
  let t = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int t big in
    Alcotest.(check bool) "in range" true (v >= 0 && v < big)
  done

let test_rng_shuffle_permutes () =
  let t = Rng.create 3 in
  let xs = Listx.range 20 in
  let s = Rng.shuffle t xs in
  check_list "same multiset" xs (List.sort compare s)

let test_monotonic_now_never_decreases () =
  let rec spin prev i =
    if i > 0 then begin
      let t = Stopwatch.monotonic_now () in
      Alcotest.(check bool) "monotonic_now never decreases" true (t >= prev);
      spin t (i - 1)
    end
  in
  spin (Stopwatch.monotonic_now ()) 10_000

let test_monotonic_now_tracks_real_time () =
  let a = Stopwatch.monotonic_now () in
  Unix.sleepf 0.02;
  let d = Stopwatch.monotonic_now () -. a in
  (* CLOCK_MONOTONIC must see the sleep; the generous upper bound only
     catches unit errors (ns read as s), not scheduler jitter *)
  Alcotest.(check bool) (Printf.sprintf "sleep 20ms measured as %.4fs" d) true
    (d >= 0.019 && d < 5.0)

let test_stopwatch_clamps () =
  let t = Stopwatch.start () in
  (* a wall clock that stepped backwards must read as 0, never negative *)
  Alcotest.(check (float 0.0)) "backwards step clamps" 0.0 (Stopwatch.elapsed_at ~now:0.0 t);
  Alcotest.(check (float 0.0)) "epoch-negative step clamps" 0.0
    (Stopwatch.elapsed_at ~now:(-1.0e9) t);
  Alcotest.(check bool) "far future reads positive" true
    (Stopwatch.elapsed_at ~now:max_float t > 0.0)

let test_stopwatch_monotone_reads () =
  let t = Stopwatch.start () in
  let a = Stopwatch.elapsed_s t in
  let b = Stopwatch.elapsed_s t in
  Alcotest.(check bool) "non-negative" true (a >= 0.0 && b >= 0.0);
  let _, d = Stopwatch.time (fun () -> ()) in
  Alcotest.(check bool) "time duration non-negative" true (d >= 0.0)

let test_table_fmt () =
  let s = Table_fmt.render ~header:[ "a"; "b" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0);
  Alcotest.(check string) "si large" "3.69e10" (Table_fmt.si 3.69e10);
  Alcotest.(check string) "si int" "42" (Table_fmt.si 42.0)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"divisors divide" ~count:200 (int_range 1 5000) (fun n ->
        List.for_all (fun d -> n mod d = 0) (Sun_util.Factor.divisors n));
    Test.make ~name:"prime factorization multiplies back" ~count:200 (int_range 1 5000) (fun n ->
        let product =
          List.fold_left
            (fun acc (p, k) -> acc * int_of_float (float_of_int p ** float_of_int k))
            1
            (Sun_util.Factor.prime_factorization n)
        in
        product = n);
    Test.make ~name:"splits multiply back" ~count:100
      (pair (int_range 1 200) (int_range 1 4))
      (fun (n, k) ->
        List.for_all (fun fs -> List.fold_left ( * ) 1 fs = n) (Sun_util.Factor.splits n k));
    Test.make ~name:"count_splits matches splits" ~count:100
      (pair (int_range 1 200) (int_range 1 4))
      (fun (n, k) -> Sun_util.Factor.count_splits n k = List.length (Sun_util.Factor.splits n k));
    Test.make ~name:"shuffle preserves elements" ~count:100 (list_of_size Gen.(1 -- 30) int)
      (fun xs ->
        let t = Sun_util.Rng.create (Hashtbl.hash xs) in
        List.sort compare (Sun_util.Rng.shuffle t xs) = List.sort compare xs);
  ]

let () =
  Alcotest.run "sun_util"
    [
      ( "factor",
        [
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "prime_factorization" `Quick test_prime_factorization;
          Alcotest.test_case "count_divisors" `Quick test_count_divisors;
          Alcotest.test_case "splits" `Quick test_splits;
          Alcotest.test_case "next_divisor" `Quick test_next_divisor;
        ] );
      ( "listx",
        [
          Alcotest.test_case "cartesian" `Quick test_cartesian;
          Alcotest.test_case "permutations" `Quick test_permutations;
          Alcotest.test_case "min_by" `Quick test_min_by;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "sequence stability" `Quick test_rng_sequence_stability;
          Alcotest.test_case "uniformity smoke" `Quick test_rng_uniformity_smoke;
          Alcotest.test_case "large-bound rejection" `Quick test_rng_large_bound_rejection_path;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "stopwatch",
        [
          Alcotest.test_case "monotonic_now never decreases" `Quick
            test_monotonic_now_never_decreases;
          Alcotest.test_case "monotonic_now tracks real time" `Quick
            test_monotonic_now_tracks_real_time;
          Alcotest.test_case "clamps negative durations" `Quick test_stopwatch_clamps;
          Alcotest.test_case "monotone reads" `Quick test_stopwatch_monotone_reads;
        ] );
      ("table_fmt", [ Alcotest.test_case "render" `Quick test_table_fmt ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
