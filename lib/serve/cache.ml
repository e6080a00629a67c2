type stats = {
  hits : int;
  misses : int;
  evictions : int;
  disk_hits : int;
  corrupt : int;
  stores : int;
}

type entry = {
  value : Json.t;
  mutable last_use : int;
  family : (string * int array) option;
      (** shape-family key and structural bounds parsed from the document's
          ["family"]/["bounds"] fields, if present — feeds {!nearest} *)
}

type t = {
  capacity : int;
  cache_dir : string option;
  table : (string, entry) Hashtbl.t;
  mutable tick : int;  (** monotone access counter driving LRU order *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable disk_hits : int;
  mutable corrupt : int;
  mutable stores : int;
}

let create ?(capacity = 256) ?dir () =
  {
    capacity = max 1 capacity;
    cache_dir = dir;
    table = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    disk_hits = 0;
    corrupt = 0;
    stores = 0;
  }

let capacity t = t.capacity

let size t = Hashtbl.length t.table

let dir t = t.cache_dir

let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_use <- t.tick

(* Fingerprints are hex digests, but guard against any caller-provided key
   escaping the cache directory. *)
let safe_key key =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_') key

let entry_path dir key = Filename.concat dir (safe_key key ^ ".json")

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let evict_if_full t =
  if Hashtbl.length t.table >= t.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun key entry ->
        match !victim with
        | Some (_, age) when age <= entry.last_use -> ()
        | _ -> victim := Some (key, entry.last_use))
      t.table;
    match !victim with
    | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1
    | None -> ()
  end

(* Family metadata is parsed once at insert time, so {!nearest} scans plain
   entries instead of re-decoding JSON documents on every probe. Documents
   without the fields (older formats, non-pipeline values) simply never
   participate in neighbor selection. *)
let family_of_doc value =
  match (Json.member "family" value, Json.member "bounds" value) with
  | Some (Json.String fam), Some (Json.List bs) -> (
    let ints =
      List.fold_left
        (fun acc b -> match (acc, b) with Some l, Json.Int i -> Some (i :: l) | _ -> None)
        (Some []) bs
    in
    match ints with
    | Some l -> Some (fam, Array.of_list (List.rev l))
    | None -> None)
  | _ -> None

let insert t key value =
  if not (Hashtbl.mem t.table key) then evict_if_full t;
  Hashtbl.remove t.table key;
  let entry = { value; last_use = 0; family = family_of_doc value } in
  Hashtbl.replace t.table key entry;
  touch t entry

(* Disk entries are wrapped as [{"k":<exact key>,"d":<value>}]: [safe_key]
   is lossy (it maps every non-alphanumeric char to '_'), so distinct keys
   can share a file name. The exact key inside the document disambiguates —
   a mismatch means the file belongs to a colliding key and this lookup
   must miss, not return the other key's value. Mismatches and unwrapped
   documents count under [corrupt], like any other unusable entry. *)
let disk_lookup t key =
  match t.cache_dir with
  | None -> None
  | Some dir -> (
    let path = entry_path dir key in
    match (try Some (read_file path) with Sys_error _ | End_of_file -> None) with
    | None -> None
    | Some contents -> (
      match Json.of_string contents with
      | Ok (Json.Obj _ as doc) when Json.member "k" doc = Some (Json.String key) -> (
        match Json.member "d" doc with
        | Some v -> Some v
        | None ->
          t.corrupt <- t.corrupt + 1;
          None)
      | Ok _ ->
        t.corrupt <- t.corrupt + 1;
        None
      | Error _ ->
        t.corrupt <- t.corrupt + 1;
        None))

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    touch t entry;
    t.hits <- t.hits + 1;
    Some entry.value
  | None -> (
    match disk_lookup t key with
    | Some value ->
      insert t key value;
      t.hits <- t.hits + 1;
      t.disk_hits <- t.disk_hits + 1;
      Some value
    | None ->
      t.misses <- t.misses + 1;
      None)

let persist t key value =
  match t.cache_dir with
  | None -> ()
  | Some dir -> (
    try
      mkdir_p dir;
      let final = entry_path dir key in
      let tmp = Printf.sprintf "%s.tmp.%d" final (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      (* If the write or the rename fails the temp file must not survive:
         persist failures are swallowed, so nothing would ever clean it.
         The fsync before the rename is load-bearing for the daemon: rename
         is atomic with respect to concurrent readers, but without it the
         *data* may still be in the page cache when the directory entry
         lands, so a crash (or SIGKILL of a long-lived server) could leave a
         truncated-but-renamed entry that later readers would trust. Flush,
         fsync, close, then rename — in that order. *)
      match
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc
              (Json.to_string (Json.Obj [ ("k", Json.String key); ("d", value) ]));
            flush oc;
            Unix.fsync (Unix.descr_of_out_channel oc));
        Sys.rename tmp final
      with
      | () -> ()
      | exception e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
    with Sys_error _ | Unix.Unix_error (_, _, _) -> ())

let store t key value =
  insert t key value;
  persist t key value;
  t.stores <- t.stores + 1

(* Nearest family member by bound distance: sum of |ln(b/b')| over the
   structural bound vectors, i.e. symmetric relative scaling per dim. A
   read-only probe over the in-memory tier (disk entries join the index as
   they are promoted by [find]): no stats, no LRU refresh — neighbor
   probing must not perturb the hit/miss accounting the parity tests pin. *)
let nearest_many ?exclude_bounds t ~family ~bounds ~k =
  let narity = Array.length bounds in
  let distance bs =
    let acc = ref 0.0 in
    for i = 0 to narity - 1 do
      acc := !acc +. abs_float (log (float_of_int bounds.(i) /. float_of_int bs.(i)))
    done;
    !acc
  in
  let excluded bs = match exclude_bounds with Some ex -> ex = bs | None -> false in
  let matches = ref [] in
  (* sorted below by a total (distance, key) order, so iteration order cannot change the ranking *)
  Hashtbl.iter
    (fun key entry ->
      match entry.family with
      | Some (fam, bs) when fam = family && Array.length bs = narity && not (excluded bs) ->
        matches := (distance bs, key, entry.value) :: !matches
      | _ -> ())
    t.table;
  let sorted = List.sort (fun (d, key, _) (d', key', _) -> compare (d, key) (d', key')) !matches in
  List.filteri (fun i _ -> i < k) (List.map (fun (_, _, v) -> v) sorted)

let nearest ?exclude_bounds t ~family ~bounds =
  match nearest_many ?exclude_bounds t ~family ~bounds ~k:1 with
  | value :: _ -> Some value
  | [] -> None

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    disk_hits = t.disk_hits;
    corrupt = t.corrupt;
    stores = t.stores;
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "%d hits (%d from disk), %d misses, %d evictions, %d corrupt, %d stores" s.hits
    s.disk_hits s.misses s.evictions s.corrupt s.stores
