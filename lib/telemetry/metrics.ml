(* Process-global single-writer metrics registry. Toplevel mutable state is
   normally a fork-safety hazard (srclint SA043, run by [sunstone check
   --src]) and is forbidden in lib/; this module is the sanctioned exception
   the rule exempts by path: the registry is never shared between processes,
   it is *copied* by fork, and worker copies flow back to the parent as
   explicit snapshot values merged on frame receipt (see DESIGN.md §3.4). *)

type counter = { mutable c_value : int }

type histogram = {
  mutable hg_count : int;
  mutable hg_sum : float;
  mutable hg_min : float;
  mutable hg_max : float;
  hg_buckets : int array;
}

(* Buckets are powers of two over the durations this codebase produces:
   bucket [i] holds durations whose binary exponent is [i + min_exponent],
   i.e. [2^(i-1+min_exponent), 2^(i+min_exponent)); the first and last
   buckets absorb everything below / above. *)
let num_buckets = 26

let min_exponent = -20 (* bucket 0: <= ~1us *)

(* The registry bindings and the registration functions below are cold for
   the hot-path lint (SA070): they evaluate once at module initialization —
   hot code holds pre-registered handles and only touches counter fields.
   Registering inside a hot loop would be a real bug, which is exactly what
   these annotations assert never happens. *)

(* sunstone-cold *)
let enabled_flag = ref false

(* sunstone-cold *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

(* sunstone-cold *)
let hists : (string, histogram) Hashtbl.t = Hashtbl.create 32

let set_enabled v = enabled_flag := v

let enabled () = !enabled_flag

(* sunstone-cold *)
let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.replace counters name c;
    c

let add c n = if !enabled_flag then c.c_value <- c.c_value + n

let incr c = add c 1

let count name n =
  if !enabled_flag then begin
    let c = counter name in
    c.c_value <- c.c_value + n
  end

(* sunstone-cold *)
let histogram name =
  match Hashtbl.find_opt hists name with
  | Some h -> h
  | None ->
    let h =
      {
        hg_count = 0;
        hg_sum = 0.0;
        hg_min = 0.0;
        hg_max = 0.0;
        hg_buckets = Array.make num_buckets 0;
      }
    in
    Hashtbl.replace hists name h;
    h

let bucket_index d =
  if d <= 0.0 then 0
  else begin
    let _, e = Float.frexp d in
    let i = e - min_exponent in
    if i < 0 then 0 else if i >= num_buckets then num_buckets - 1 else i
  end

let observe h d =
  if !enabled_flag then begin
    if h.hg_count = 0 then begin
      h.hg_min <- d;
      h.hg_max <- d
    end
    else begin
      if d < h.hg_min then h.hg_min <- d;
      if d > h.hg_max then h.hg_max <- d
    end;
    h.hg_count <- h.hg_count + 1;
    h.hg_sum <- h.hg_sum +. d;
    let i = bucket_index d in
    h.hg_buckets.(i) <- h.hg_buckets.(i) + 1
  end

let span name f =
  if not !enabled_flag then f ()
  else begin
    let h = histogram name in
    let started = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. started)) f
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist = { h_count : int; h_sum : float; h_min : float; h_max : float; h_buckets : int array }

type snapshot = { s_counters : (string * int) list; s_hists : (string * hist) list }

let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter
    (fun _ h ->
      h.hg_count <- 0;
      h.hg_sum <- 0.0;
      h.hg_min <- 0.0;
      h.hg_max <- 0.0;
      Array.fill h.hg_buckets 0 num_buckets 0)
    hists

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  let cs = Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) counters [] in
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        ( name,
          {
            h_count = h.hg_count;
            h_sum = h.hg_sum;
            h_min = h.hg_min;
            h_max = h.hg_max;
            h_buckets = Array.copy h.hg_buckets;
          } )
        :: acc)
      hists []
  in
  { s_counters = List.sort by_name cs; s_hists = List.sort by_name hs }

let merge s =
  List.iter
    (fun (name, v) ->
      let c = counter name in
      c.c_value <- c.c_value + v)
    s.s_counters;
  List.iter
    (fun (name, h) ->
      if h.h_count > 0 then begin
        let hg = histogram name in
        if hg.hg_count = 0 then begin
          hg.hg_min <- h.h_min;
          hg.hg_max <- h.h_max
        end
        else begin
          if h.h_min < hg.hg_min then hg.hg_min <- h.h_min;
          if h.h_max > hg.hg_max then hg.hg_max <- h.h_max
        end;
        hg.hg_count <- hg.hg_count + h.h_count;
        hg.hg_sum <- hg.hg_sum +. h.h_sum;
        Array.iteri
          (fun i n -> if i < num_buckets then hg.hg_buckets.(i) <- hg.hg_buckets.(i) + n)
          h.h_buckets
      end)
    s.s_hists

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* Shortest decimal spelling that reads back to the same float; snapshot
   floats are durations, always finite. *)
let float_str f =
  let short = Printf.sprintf "%.12g" f in
  let s = if float_of_string short = f then short else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let escape_key buf name =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    name;
  Buffer.add_char buf '"'

(* One counter (or histogram) per line, keys 4-space indented: stable,
   grep-friendly output that [Sun_serve.Json.of_string] parses back. *)
let to_json s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"v\": 1,\n  \"kind\": \"telemetry\",\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      escape_key buf name;
      Buffer.add_string buf (Printf.sprintf ": %d" v))
    s.s_counters;
  Buffer.add_string buf (if s.s_counters = [] then "},\n" else "\n  },\n");
  Buffer.add_string buf "  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      escape_key buf name;
      Buffer.add_string buf
        (Printf.sprintf ": {\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"buckets\": [%s]}"
           h.h_count (float_str h.h_sum) (float_str h.h_min) (float_str h.h_max)
           (String.concat ", " (Array.to_list (Array.map string_of_int h.h_buckets)))))
    s.s_hists;
  Buffer.add_string buf (if s.s_hists = [] then "}\n" else "\n  }\n");
  Buffer.add_string buf "}";
  Buffer.contents buf

let save path s =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (to_json s);
        output_char oc '\n');
    Ok ()

let duration_str v =
  if v < 1e-3 then Printf.sprintf "%.1fus" (v *. 1e6)
  else if v < 1.0 then Printf.sprintf "%.2fms" (v *. 1e3)
  else Printf.sprintf "%.3fs" v

let render_table ~header ~rows =
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (List.iteri (fun i cell ->
         if i < Array.length widths && String.length cell > widths.(i) then
           widths.(i) <- String.length cell))
    rows;
  let buf = Buffer.create 256 in
  let pad i cell =
    Buffer.add_string buf cell;
    if i < Array.length widths - 1 then
      Buffer.add_string buf (String.make (widths.(i) - String.length cell + 2) ' ')
  in
  let line cells = List.iteri pad cells; Buffer.add_char buf '\n' in
  line header;
  line (List.mapi (fun i _ -> String.make widths.(i) '-') header);
  List.iter line rows;
  Buffer.contents buf

let to_table s =
  let buf = Buffer.create 1024 in
  (if s.s_counters <> [] then begin
     let rows = List.map (fun (name, v) -> [ name; string_of_int v ]) s.s_counters in
     Buffer.add_string buf (render_table ~header:[ "counter"; "value" ] ~rows)
   end);
  (if s.s_hists <> [] then begin
     if s.s_counters <> [] then Buffer.add_char buf '\n';
     let rows =
       List.map
         (fun (name, h) ->
           let mean = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count in
           [
             name;
             string_of_int h.h_count;
             duration_str mean;
             duration_str h.h_min;
             duration_str h.h_max;
             duration_str h.h_sum;
           ])
         s.s_hists
     in
     Buffer.add_string buf
       (render_table ~header:[ "histogram"; "count"; "mean"; "min"; "max"; "total" ] ~rows)
   end);
  if Buffer.length buf = 0 then "no metrics recorded\n" else Buffer.contents buf
