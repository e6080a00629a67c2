type partition = {
  part_name : string;
  capacity_words : int;
  accepts : [ `All | `Roles of string list ];
  read_energy : float;
  write_energy : float;
  bandwidth : float;
}

type level = {
  level_name : string;
  partitions : partition list;
  fanout : int;
  multicast : bool;
  noc_hop_energy : float;
  unbounded : bool;
}

type t = { arch_name : string; levels : level list; mac_energy : float; mac_throughput : int }

type energy = { e_level : int option; e_partition : string option; e_name : string; e_pj : float }

type violation =
  | Too_few_levels of int
  | Top_bounded of { level : int; name : string }
  | Interior_unbounded of { level : int; name : string }
  | Bad_fanout of { level : int; name : string; fanout : int }
  | No_partitions of { level : int; name : string }
  | Negative_capacity of { level : int; partition : string; capacity : int }
  | Zero_capacity of { level : int; name : string; partition : string }
  | Duplicate_partition of { level : int; name : string; partition : string }
  | Nonpositive_bandwidth of { level : int; partition : string; bandwidth : float }
  | Bad_mac_throughput of int
  | Nonfinite_energy of energy

let violation_message = function
  | Too_few_levels _ -> "need at least two levels"
  | Top_bounded _ -> "outermost level must be unbounded (DRAM)"
  | Interior_unbounded { name; _ } ->
    Printf.sprintf "level %s is unbounded but is not the outermost level" name
  | Bad_fanout { name; _ } -> Printf.sprintf "fanout of %s < 1" name
  | No_partitions { name; _ } -> Printf.sprintf "level %s has no partitions" name
  | Negative_capacity { partition; _ } -> Printf.sprintf "negative capacity in %s" partition
  | Zero_capacity { name; _ } -> Printf.sprintf "zero capacity in bounded level %s" name
  | Duplicate_partition { name; partition; _ } ->
    Printf.sprintf "level %s has two partitions named %s" name partition
  | Nonpositive_bandwidth { partition; bandwidth; _ } ->
    Printf.sprintf "partition %s has non-positive bandwidth %g" partition bandwidth
  | Bad_mac_throughput n -> Printf.sprintf "mac_throughput %d (must be >= 1)" n
  | Nonfinite_energy e -> Printf.sprintf "%s is not finite (%g)" e.e_name e.e_pj

let energies t =
  let energy e_level e_partition e_name e_pj = { e_level; e_partition; e_name; e_pj } in
  List.concat
    (List.mapi
       (fun level l ->
         let at = Some level in
         List.concat_map
           (fun p ->
             let part = Some p.part_name in
             [
               energy at part ("read energy of partition " ^ p.part_name) p.read_energy;
               energy at part ("write energy of partition " ^ p.part_name) p.write_energy;
             ])
           l.partitions
         @ [ energy at None ("NoC hop energy of level " ^ l.level_name) l.noc_hop_energy ])
       t.levels)
  @ [ energy None None "MAC energy" t.mac_energy ]

let violations t =
  let found = ref [] in
  let report v = found := v :: !found in
  let n = List.length t.levels in
  if n < 2 then report (Too_few_levels n);
  (match List.rev t.levels with
  | top :: _ when not top.unbounded -> report (Top_bounded { level = n - 1; name = top.level_name })
  | _ -> ());
  List.iteri
    (fun level l ->
      let name = l.level_name in
      if l.unbounded && level < n - 1 then report (Interior_unbounded { level; name });
      if l.fanout < 1 then report (Bad_fanout { level; name; fanout = l.fanout });
      if l.partitions = [] then report (No_partitions { level; name });
      let rec parts earlier = function
        | [] -> ()
        | p :: rest ->
          let partition = p.part_name in
          if p.capacity_words < 0 then
            report (Negative_capacity { level; partition; capacity = p.capacity_words });
          if (not l.unbounded) && p.capacity_words = 0 then
            report (Zero_capacity { level; name; partition });
          if List.mem partition earlier then
            report (Duplicate_partition { level; name; partition });
          if not (p.bandwidth > 0.0) then
            report (Nonpositive_bandwidth { level; partition; bandwidth = p.bandwidth });
          parts (partition :: earlier) rest
      in
      parts [] l.partitions)
    t.levels;
  if t.mac_throughput < 1 then report (Bad_mac_throughput t.mac_throughput);
  List.iter
    (fun e -> if not (Float.is_finite e.e_pj) then report (Nonfinite_energy e))
    (energies t);
  List.rev !found

let make ~name ~levels ~mac_energy ?(mac_throughput = 1) () =
  let t = { arch_name = name; levels; mac_energy; mac_throughput } in
  match violations t with
  | [] -> t
  | v :: _ -> invalid_arg ("Arch.make: " ^ violation_message v)

let unroll_violation l instances =
  if instances <= l.fanout then None
  else
    Some
      (* sunstone-lint: allow SA070 rejected-candidate path only *)
      (Printf.sprintf "level %s: spatial unrolling %d exceeds fanout %d" l.level_name instances
         l.fanout)

let num_levels t = List.length t.levels
let level t i = List.nth t.levels i
let dram_index t = num_levels t - 1
let total_fanout t = List.fold_left (fun acc l -> acc * l.fanout) 1 t.levels

let accepts_operand p ~role =
  match p.accepts with `All -> true | `Roles rs -> List.mem role rs

let stores l ~role = List.exists (accepts_operand ~role) l.partitions

let partition_for l ~role = List.find_opt (accepts_operand ~role) l.partitions

let pp ppf t =
  let pp_partition ppf p =
    let accepts =
      match p.accepts with `All -> "all" | `Roles rs -> String.concat "/" rs
    in
    Format.fprintf ppf "%s[%s] %d words (r %.2f / w %.2f pJ, %.0f w/cyc)" p.part_name accepts
      p.capacity_words p.read_energy p.write_energy p.bandwidth
  in
  let pp_level ppf l =
    Format.fprintf ppf "%-6s fanout=%-4d %s@,        %a" l.level_name l.fanout
      (if l.multicast then "multicast" else "unicast")
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,        ") pp_partition)
      l.partitions
  in
  Format.fprintf ppf "@[<v>%s (MAC %.2f pJ)@,%a@]" t.arch_name t.mac_energy
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_level)
    (List.rev t.levels)
