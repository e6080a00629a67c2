(* The output check, run after timing: every response must carry a mapping
   that decodes, passes the legality checker, and re-costs to exactly the
   energy, cycles and EDP it claims; cache hits must equal the computed
   answer for their fingerprint. Also the committed EDP reference. *)

module J = Sun_serve.Json

type checked = {
  fingerprint : string;
  status : string;
  edp : float;
  answer : string;  (** mapping, cost and the three claimed floats, re-encoded *)
}

let ( let* ) = Result.bind

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let response (r : Mix.request) line =
  let* doc = J.of_string line in
  let* status = Result.bind (J.field "status" doc) J.as_string in
  let* () =
    if status = "computed" || status = "hit" then Ok ()
    else
      Error
        (Printf.sprintf "status %s: %s" status
           (match J.member "error" doc with Some (J.String m) -> m | _ -> "no error message"))
  in
  let* fingerprint = Result.bind (J.field "fingerprint" doc) J.as_string in
  let* mapping_json = J.field "mapping" doc in
  let* cost_json = J.field "cost" doc in
  let* levels = Sun_serve.Codec.decode_mapping_raw mapping_json in
  let diags = Sun_analysis.Legality.check_all r.Mix.w r.Mix.a levels in
  let* () =
    if Sun_analysis.Diagnostic.has_errors diags then
      Error ("illegal mapping: " ^ Sun_analysis.Diagnostic.summary diags)
    else Ok ()
  in
  let* m = Sun_mapping.Mapping.make r.Mix.w levels in
  let* cost = Sun_cost.Model.evaluate r.Mix.w r.Mix.a m in
  let claimed f = Result.bind (J.field f doc) J.as_float in
  let* energy = claimed "energy_pj" in
  let* cycles = claimed "cycles" in
  let* edp = claimed "edp" in
  let* () =
    if
      same_float energy cost.Sun_cost.Model.energy_pj
      && same_float cycles cost.Sun_cost.Model.cycles
      && same_float edp cost.Sun_cost.Model.edp
    then Ok ()
    else
      Error
        (Printf.sprintf "claimed cost (%h pJ, %h cycles, %h EDP) differs from Model.evaluate (%h, %h, %h)"
           energy cycles edp cost.Sun_cost.Model.energy_pj cost.Sun_cost.Model.cycles
           cost.Sun_cost.Model.edp)
  in
  let answer =
    J.to_string
      (J.Obj
         [
           ("mapping", mapping_json);
           ("cost", cost_json);
           ("energy_pj", J.Float energy);
           ("cycles", J.Float cycles);
           ("edp", J.Float edp);
         ])
  in
  Ok { fingerprint; status; edp; answer }

(* Checks one repetition's responses (request, raw line), in the order they
   were answered, and returns each one's verdict. A cache hit must repeat,
   byte for byte (wall_s, id and status aside), the answer last computed
   for its fingerprint: the daemon stores a computed answer before sending
   it. *)
let repetition (responses : (Mix.request * string) list) =
  let computed = Hashtbl.create 64 in
  List.map
    (fun (r, line) ->
      let fail e = Error (r.Mix.key ^ ": " ^ e) in
      match response r line with
      | Error e -> fail e
      | Ok c when c.status = "computed" ->
        Hashtbl.replace computed c.fingerprint c.answer;
        Ok c
      | Ok c -> (
        match Hashtbl.find_opt computed c.fingerprint with
        | Some a when a = c.answer -> Ok c
        | Some _ -> fail "cache hit differs from the computed answer"
        | None -> fail "cache hit without a computed answer before it"))
    responses

(* ------------------------------------------------------------------ *)
(* EDP reference                                                        *)
(* ------------------------------------------------------------------ *)

let reference_path = "bench/perf/reference.json"

let load_reference () =
  match In_channel.with_open_text reference_path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text ->
    let* doc = J.of_string text in
    let* entries = Result.bind (J.field "edp" doc) J.as_obj in
    List.fold_left
      (fun acc (k, v) ->
        let* tbl = acc in
        let* x = J.as_float v in
        Hashtbl.replace tbl k x;
        Ok tbl)
      (Ok (Hashtbl.create 256))
      entries

let write_reference entries =
  let doc =
    J.Obj
      [
        ("v", J.Int 1);
        ( "note",
          J.String
            "Cold-search EDP of every distinct benchmark request, written by `perf.exe \
             --write-reference`. edp_max_ratio and edp_worse_layers compare against it." );
        ("edp", J.Obj (List.map (fun (k, x) -> (k, J.Float x)) (List.sort compare entries)));
      ]
  in
  Out_channel.with_open_text reference_path (fun oc ->
      Out_channel.output_string oc (J.to_string_pretty doc);
      Out_channel.output_char oc '\n')
