type outcome = { candidates : int array list; explored : int }

let product factors = Array.fold_left ( * ) 1 factors

let candidates ~table ~fanout ~remaining ?(min_utilization = 0.0) () =
  let ones () = [ Array.make (Array.length remaining) 1 ] in
  if fanout <= 1 || Array.length remaining = 0 then { candidates = ones (); explored = 1 }
  else begin
    let fits factors = product factors <= fanout in
    let out = Tile_tree.search ~max_steps:24 ~table ~remaining ~fits () in
    let threshold = min_utilization *. float_of_int fanout in
    let selected =
      List.filter (fun a -> float_of_int (product a) >= threshold) out.Tile_tree.frontier
    in
    (* below the threshold, the maximal assignments are still the best
       available spatial reuse — only an empty frontier degrades to ones *)
    let candidates =
      match (selected, out.Tile_tree.frontier) with
      | [], [] -> ones ()
      | [], frontier -> frontier
      | selected, _ -> selected
    in
    { candidates; explored = out.Tile_tree.explored }
  end
