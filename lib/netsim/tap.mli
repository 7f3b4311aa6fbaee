(** Passive observation point — the simulated equivalent of the paper's
    Agilent J6841A line analyzer.

    A tap is spliced between two components; it timestamps the padded
    stream (payload + dummy) and forwards everything untouched.  The
    adversary cannot tell payload from dummies (contents are encrypted)
    but can distinguish them from unrelated cross traffic by address, as
    the paper's adversary does when tapping the gateway-to-gateway flow.
    Each observation's [tap.observe] trace record is written by
    {!Tracebuf.record}. *)

type t

val create :
  Desim.Sim.t -> ?buffers:Fvec.t * Fvec.t -> dest:Link.port -> unit -> t
(** [buffers] optionally supplies recycled [(times, sizes)] recording
    vectors (they are cleared on create); sweep harnesses pass
    arena-owned Fvecs so repeated runs reuse already-grown storage
    instead of re-allocating and re-growing from scratch. *)

val port : t -> Link.port
val count : t -> int
(** Number of recorded packets. *)

val note_batch : observed:int -> payload:int -> dummy:int -> unit
(** Fold a batch of observations into the tap's registry counters
    ([netsim.tap.observed] / [.payload] / [.dummy]) in one transactional
    add — the flush half of the fused kernels' inline tap, which records
    timestamps directly into arena buffers instead of going through
    {!port} packet by packet.  Raises [Invalid_argument] on negative
    counts. *)

val timestamps : t -> float array
(** Arrival times of recorded packets, in order. *)

val sizes : t -> int array
(** Sizes (bytes) of recorded packets, in order — the other observable the
    paper's §3.2 remark (3) assumes away by making packets constant-size;
    exposed so the size-padding extension can mount size-based attacks. *)
