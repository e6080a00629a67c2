(* A binary min-heap of items under (key, item). *)
type t = { mutable heap : int array; mutable size : int; mutable key : float array }

let create () = { heap = [||]; size = 0; key = [||] }

let before t a b =
  let c = Float.compare t.key.(a) t.key.(b) in
  c < 0 || (c = 0 && a < b)

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let c = if l + 1 < t.size && before t t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    let x = t.heap.(i) and y = t.heap.(c) in
    if before t y x then begin
      t.heap.(i) <- y;
      t.heap.(c) <- x;
      sift_down t c
    end
  end

let start t key items n =
  if Array.length t.heap < n then t.heap <- Array.make n 0;
  Array.blit items 0 t.heap 0 n;
  t.size <- n;
  t.key <- key;
  for i = (n / 2) - 1 downto 0 do
    sift_down t i
  done

let pop t =
  if t.size = 0 then -1
  else begin
    let x = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0;
    x
  end
