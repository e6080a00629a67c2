(** Event-counting simulator for the DianNao-like accelerator.

    Executes an instruction stream, accumulating event counts per hardware
    component, and converts them to energy with the shared energy table.
    Compute passes charge the scratchpad reads the NFU performs per MAC:
    with [nfu_width] = Tn parallel output neurons, each NBin word feeds Tn
    multipliers per cycle while SB supplies one word per multiplier, and
    partial sums accumulate in NFU registers with one NBout read-modify-
    write per output element per pass. Instructions are fetched from DRAM
    (the paper's pessimistic assumption: energy could only improve with a
    dedicated instruction buffer). *)

type events = {
  instructions : int;
  dram_read_words : float;
  dram_write_words : float;
  fills : (Isa.buffer * float) list;  (** words written into each scratchpad *)
  compute_reads : (Isa.buffer * float) list;  (** words read during passes *)
  macs : float;
  reorder_words : float;  (** one-time DRAM re-layout traffic *)
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

val total : energy -> float

type result = { events : events; energy : energy }

val run : ?nfu_width:int -> Sun_tensor.Workload.t -> Compiler.program -> result
(** Default [nfu_width] = 16 (DianNao's Tn). *)

val naive : ?nfu_width:int -> Sun_tensor.Workload.t -> result
(** The untiled baseline of Fig 9a: operands stream from DRAM for every
    use (the NFU's intrinsic input broadcast is still granted), outputs
    accumulate on chip and are written back once. Only MAC and DRAM energy
    is spent. *)
