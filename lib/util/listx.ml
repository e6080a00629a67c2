let cartesian lists =
  let add_axis acc choices =
    List.concat_map (fun prefix -> List.map (fun c -> c :: prefix) choices) acc
  in
  List.map List.rev (List.fold_left add_axis [ [] ] lists)

let permutations ?limit xs =
  let rec all = function
    | [] -> Seq.return []
    | xs ->
      Seq.concat_map
        (fun x -> Seq.map (List.cons x) (all (List.filter (fun y -> y != x) xs)))
        (List.to_seq xs)
  in
  List.of_seq (match limit with Some n -> Seq.take n (all xs) | None -> all xs)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let min_by key = function
  | [] -> None
  | x :: xs ->
    let best, _ =
      List.fold_left
        (fun (b, kb) y ->
          let ky = key y in
          if ky < kb then (y, ky) else (b, kb))
        (x, key x) xs
    in
    Some best

let sum_by key xs = List.fold_left (fun acc x -> acc +. key x) 0.0 xs

let unique cmp xs =
  let sorted = List.sort cmp xs in
  let rec dedup = function
    | a :: b :: rest when cmp a b = 0 -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let range n = List.init n (fun i -> i)
