module W = Sun_tensor.Workload
module E = Sun_arch.Energy_table

type events = {
  instructions : int;
  dram_read_words : float;
  dram_write_words : float;
  fills : (Isa.buffer * float) list;
  compute_reads : (Isa.buffer * float) list;
  macs : float;
  reorder_words : float;
}

type energy = {
  dram : float;
  nbin : float;
  sb : float;
  nbout : float;
  mac : float;
  instruction_fetch : float;
  reorder : float;
}

let total e =
  e.dram +. e.nbin +. e.sb +. e.nbout +. e.mac +. e.instruction_fetch +. e.reorder

type result = { events : events; energy : energy }

let bits = 16
let nbin_words = 1_024
let sb_words = 16_384
let nbout_words = 1_024

let buffer_capacity = function
  | Isa.NBin -> nbin_words
  | Isa.SB -> sb_words
  | Isa.NBout -> nbout_words

let sram_read buf = E.sram_read ~capacity_words:(buffer_capacity buf) ~bits
let sram_write buf = E.sram_write ~capacity_words:(buffer_capacity buf) ~bits

let add assoc key v =
  let rec go = function
    | [] -> [ (key, v) ]
    | (k, x) :: rest when k = key -> (k, x +. v) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let find assoc key = match List.assoc_opt key assoc with Some v -> v | None -> 0.0

let run ?(nfu_width = 16) (_ : W.t) (program : Compiler.program) =
  let instructions = ref 0 in
  let dram_read = ref 0.0 and dram_write = ref 0.0 in
  let fills = ref [] and compute_reads = ref [] in
  let macs = ref 0.0 in
  Seq.iter
    (fun insn ->
      instructions := !instructions + Isa.instruction_count insn;
      match insn with
      | Isa.Load { buffer; words; _ } ->
        dram_read := !dram_read +. float_of_int words;
        fills := add !fills buffer (float_of_int words)
      | Isa.Store { words; _ } ->
        dram_write := !dram_write +. float_of_int words;
        compute_reads := add !compute_reads Isa.NBout (float_of_int words)
      | Isa.Compute { macs = m } ->
        macs := !macs +. m;
        (* NBin feeds Tn output neurons per word; SB feeds one MAC per word *)
        compute_reads := add !compute_reads Isa.NBin (m /. float_of_int nfu_width);
        compute_reads := add !compute_reads Isa.SB m;
        (* accumulate partials: one NBout read+write per output element per
           pass *)
        compute_reads := add !compute_reads Isa.NBout (2.0 *. program.Compiler.out_tile_words))
    (program.Compiler.instructions ());
  let reorder_words = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 program.Compiler.reorder_words in
  let events =
    {
      instructions = !instructions;
      dram_read_words = !dram_read;
      dram_write_words = !dram_write;
      fills = !fills;
      compute_reads = !compute_reads;
      macs = !macs;
      reorder_words;
    }
  in
  let buffer_energy buf =
    (find events.fills buf *. sram_write buf) +. (find events.compute_reads buf *. sram_read buf)
  in
  let dram_word = E.dram_access ~bits in
  let energy =
    {
      dram = (events.dram_read_words +. events.dram_write_words) *. dram_word;
      nbin = buffer_energy Isa.NBin;
      sb = buffer_energy Isa.SB;
      nbout = buffer_energy Isa.NBout;
      mac = events.macs *. E.mac ~bits;
      instruction_fetch =
        float_of_int events.instructions
        *. (float_of_int Isa.instruction_bits /. float_of_int bits)
        *. dram_word;
      reorder = events.reorder_words *. 2.0 *. dram_word;
    }
  in
  { events; energy }

let naive ?(nfu_width = 16) w =
  let macs = W.macs w in
  let out = W.output w in
  let out_size = W.operand_size w out in
  let input_reads =
    (* every MAC streams its operands from DRAM; the NFU's intrinsic
       broadcast still shares the ifmap-like operand across Tn neurons *)
    List.fold_left
      (fun acc (op : W.operand) ->
        match Compiler.default_placement w op.W.name with
        | Isa.NBin -> acc +. (macs /. float_of_int nfu_width)
        | Isa.SB -> acc +. macs
        | Isa.NBout -> acc)
      0.0 (W.inputs w)
  in
  let dram_word = E.dram_access ~bits in
  let events =
    {
      instructions = 0;
      dram_read_words = input_reads;
      dram_write_words = out_size;
      fills = [];
      compute_reads = [];
      macs;
      reorder_words = 0.0;
    }
  in
  let energy =
    {
      dram = (input_reads +. out_size) *. dram_word;
      nbin = 0.0;
      sb = 0.0;
      nbout = 0.0;
      mac = macs *. E.mac ~bits;
      instruction_fetch = 0.0;
      reorder = 0.0;
    }
  in
  { events; energy }
