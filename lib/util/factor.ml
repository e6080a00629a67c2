let check_pos name n =
  if n <= 0 then invalid_arg (Printf.sprintf "Factor.%s: %d <= 0" name n)

let divisors n =
  check_pos "divisors" n;
  let rec loop d small large =
    if d * d > n then List.rev_append small large
    else if n mod d = 0 then
      let large = if d * d = n then large else (n / d) :: large in
      loop (d + 1) (d :: small) large
    else loop (d + 1) small large
  in
  loop 1 [] []

let prime_factorization n =
  check_pos "prime_factorization" n;
  let rec extract n p acc =
    if p * p > n then if n > 1 then (n, 1) :: acc else acc
    else if n mod p = 0 then begin
      let rec count n k = if n mod p = 0 then count (n / p) (k + 1) else (n, k) in
      let n', k = count n 0 in
      extract n' (p + 1) ((p, k) :: acc)
    end
    else extract n (p + 1) acc
  in
  List.rev (extract n 2 [])

let count_divisors n =
  List.fold_left (fun acc (_, k) -> acc * (k + 1)) 1 (prime_factorization n)

let next_divisor n d =
  check_pos "next_divisor" n;
  let rec loop c = if c > n then None else if n mod c = 0 then Some c else loop (c + 1) in
  loop (d + 1)

(* Binomial coefficient on small arguments; the exponents of prime
   factorizations of tensor dimensions are tiny, so overflow is not a
   concern here. *)
let binomial n k =
  let k = min k (n - k) in
  let rec loop i acc = if i > k then acc else loop (i + 1) (acc * (n - k + i) / i) in
  if k < 0 then 0 else loop 1 1

let count_splits n k =
  check_pos "count_splits" n;
  check_pos "count_splits(k)" k;
  List.fold_left
    (fun acc (_, m) -> acc * binomial (m + k - 1) (k - 1))
    1 (prime_factorization n)

let splits n k =
  check_pos "splits" n;
  check_pos "splits(k)" k;
  let rec go n k =
    if k = 1 then [ [ n ] ]
    else
      List.concat_map (fun d -> List.map (fun rest -> d :: rest) (go (n / d) (k - 1))) (divisors n)
  in
  go n k

let cdiv a b =
  check_pos "cdiv" b;
  (a + b - 1) / b
