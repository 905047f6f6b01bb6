(* Shared controller state: the record every cc_* module operates on,
   the public exceptions, and the small primitives (event/trace
   emission, cycle charging, stub-table and incoming-pointer
   bookkeeping) the other layers build on. The public surface is
   re-exported by [Controller]; everything here is reachable as
   [Softcache.Cc_state] for white-box tests. *)

type event =
  | Translated of int
  | Evicted of int
  | Flushed
  | Invalidated
  | Patched

type staged = { st_bytes : Bytes.t; st_crc : int }

type t = {
  cfg : Config.t;
  image : Isa.Image.t;
  mutable cpu : Machine.Cpu.t;
      (* the CPU currently advancing under this controller. Solo runs
         never reassign it; the shard layer points it at whichever hart
         is scheduled, so cycle charges, stack scrubs and parked-pc
         redirects all land on the active hart *)
  mutable harts : Machine.Cpu.t array;
      (* every hart sharing this controller ([||] in solo runs; set by
         [Shard.attach]). Each hart owns a private memory whose tcache
         region is kept byte-identical by [write_word] mirroring —
         coherent shared code over private data *)
  tc : Tcache.t;
  stats : Stats.t;
  policy : Policy.t;
      (* the replacement policy's private bookkeeping; constructed
         from [cfg.eviction] at [create] and consulted nowhere else *)
  install_cycle : (int, int) Hashtbl.t;
      (* block id -> cycle counter at install, for the victim-age
         histogram; entries die with their block *)
  staging : (int, staged) Hashtbl.t;
  staging_order : int Queue.t;
  mutable prefetch_ranker : (lo:int -> hi:int -> int) option;
  mutable stubs : Stub.t array;
  mutable nstubs : int;
  ret_stubs : (int, int * int) Hashtbl.t;
  plt : (int, int * int) Hashtbl.t;
      (* function vaddr -> (slot paddr, stub index); the PLT-style
         indirection table of function-granularity mode. Slots are
         persistent (call sites address them directly), hold [Trap k]
         while the function is absent and [Jmp paddr] while resident;
         patched on install, reverted through the target's incoming
         list on eviction *)
  gran_degraded : (int, int) Hashtbl.t;
      (* function entry vaddr -> end of its contiguous extent, for
         functions whose whole-body unit could not be cached (too big
         for the tcache, or not contiguously decodable): every miss
         inside a recorded extent chunks at block granularity instead.
         Sticky — degradation is a property of the function, not of a
         particular cache state *)
  stack_top : int;
  mutable next_block_id : int;
  mutable started : bool;
  mutable ra_regions : (int * int) list;
      (* registered non-stack storage holding return addresses *)
  mutable free_stubs : int list;
      (* recycled stub-table entries from evicted blocks *)
  mutable live_stubs : int;
  mutable on_event : (event -> unit) option;
  mutable tracer : Trace.t option;
  mutable alloc_guard : int;
      (* bound on translate's re-allocation rounds when eviction
         processing keeps growing the persistent stub area into the
         fresh placement; mutable as a test hook so the exhaustion
         exception is reachable without a pathological workload *)
  mutable chaos_drop_incoming : int;
      (* test hook: silently skip the next N incoming-pointer records,
         seeding the bookkeeping bug the auditor must catch *)
  mutable chaos_evict_bound : bool;
      (* test hook: evict the first bound-exit target block between
         translation and incoming-pointer recording, making the
         "resident during this translation" invariant of the bound loop
         false — proves [Internal_invariant_broken] is raised, not an
         anonymous assert *)
  mutable mc_transport :
    (vaddr:int ->
    prefetch_vaddrs:int list ->
    payloads:Bytes.t list ->
    (int * Bytes.t list, Netmodel.error) result)
    option;
      (* server-side transport interposition: when set (a fleet MC
         multiplexing a shared link), demand frames dispatch through it
         instead of going straight to [cfg.net]. [None] (the default)
         is the direct single-client path. The reply may carry fewer
         segments than were offered — a coalesced delivery returns the
         demand segment only *)
  mutable mc_crc : (Bytes.t -> int) option;
      (* server-side CRC stamping; a fleet MC memoizes through its
         shared chunk cache so identical content across clients is
         chunked and CRC-computed once. [None] computes directly *)
}

exception Chunk_too_large of int
exception Tcache_too_small
exception Chunk_unavailable of { vaddr : int; attempts : int }

exception Internal_invariant_broken of { chunk : int; detail : string }
(* a controller bookkeeping invariant failed while processing this
   chunk — diagnosable (unlike a bare assert) in audit-off runs *)

exception
  Alloc_guard_exhausted of {
    loops : int;  (* the guard value the loop started from *)
    base : int;  (* code region is [base, persist_base) *)
    persist_base : int;  (* stub region is [persist_base, top) *)
    top : int;
  }

let emit_event t ev = match t.on_event with Some f -> f ev | None -> ()
let trace t ev = match t.tracer with Some tr -> Trace.emit tr ev | None -> ()

(* Hot paths test this before building an event record, so an
   untraced run allocates none. *)
let tracing t = t.tracer <> None

let log_src =
  Logs.Src.create "softcache.controller"
    ~doc:"SoftCache cache-controller events"

module Log = (val Logs.src_log log_src)

let enc = Isa.Encode.encode

(* Every explicit client-side charge is labelled with its attribution
   category so an attached tracer can conserve: the labelled categories
   plus the execute residual sum exactly to [cpu.cycles]. *)
let charge t cat c =
  (match t.tracer with Some tr -> Trace.attribute tr cat c | None -> ());
  t.cpu.cycles <- t.cpu.cycles + c

(* Code writes into the tcache region are mirrored into every hart's
   private memory (through [Memory.write32], so each hart's decode
   cache invalidates): the simulated harts share the tcache coherently
   while keeping data memory private. Writes outside the tcache region
   (stack scrubs, program stores) touch only the active CPU. *)
let write_word t addr w =
  Machine.Memory.write32 t.cpu.mem addr w;
  if
    Array.length t.harts > 0
    && addr >= t.cfg.tcache_base
    && addr < t.cfg.tcache_base + t.cfg.tcache_bytes
  then
    Array.iter
      (fun (h : Machine.Cpu.t) ->
        if h != t.cpu then Machine.Memory.write32 h.mem addr w)
      t.harts

let add_stub t make =
  t.live_stubs <- t.live_stubs + 1;
  match t.free_stubs with
  | k :: rest ->
    t.free_stubs <- rest;
    t.stubs.(k) <- make k;
    k
  | [] ->
    if t.nstubs = Array.length t.stubs then begin
      let bigger =
        Array.make (max 64 (2 * t.nstubs)) (Stub.Computed { rs = Isa.Reg.ra })
      in
      Array.blit t.stubs 0 bigger 0 t.nstubs;
      t.stubs <- bigger
    end;
    let k = t.nstubs in
    t.stubs.(k) <- make k;
    t.nstubs <- k + 1;
    k

let free_stub_list t ks =
  List.iter
    (fun k ->
      t.free_stubs <- k :: t.free_stubs;
      t.live_stubs <- t.live_stubs - 1)
    ks

(* A dead block's stub entries can never fire again (its memory is
   unreachable once the resume redirect has run), so they are recycled
   — this is what keeps CC metadata proportional to residency. *)
let free_block_stubs t victims =
  List.iter (fun (b : Tcache.block) -> free_stub_list t b.stubs) victims

let record_incoming t (b : Tcache.block) ~from_block ~site_paddr ~revert_word
    =
  if t.chaos_drop_incoming > 0 then
    t.chaos_drop_incoming <- t.chaos_drop_incoming - 1
  else
    b.incoming <- { Tcache.from_block; site_paddr; revert_word } :: b.incoming

(* ---- granularity ----
   The single effective-granularity chunk acquisition point. Block mode
   defers to the configured chunking untouched. Function mode chunks
   the whole enclosing function as one unit, except for functions that
   have been degraded to block granularity: a unit that cannot be
   cached (more instructions than [Chunker.max_function_instrs], a body
   the tcache can never hold, or a non-contiguously-decodable extent)
   is recorded in [gran_degraded] and every miss inside its extent —
   this one and all later ones — chunks as a basic block instead.
   Degradation is sticky because it is a property of the function
   (size, decodability, capacity), not of a particular cache state. *)

let record_degraded t v hi =
  Hashtbl.replace t.gran_degraded v (max hi (v + 4));
  t.stats.gran_degraded <- t.stats.gran_degraded + 1;
  trace t (Trace.Cc_degrade { chunk = v; bytes = max hi (v + 4) - v })

let in_degraded_extent t v =
  Hashtbl.fold
    (fun lo hi acc -> acc || (v >= lo && v < hi))
    t.gran_degraded false

let chunk_for t v =
  match t.cfg.granularity with
  | Config.Block -> Chunker.chunk_at t.image t.cfg.chunking v
  | Config.Function ->
    if in_degraded_extent t v then
      Chunker.chunk_at t.image Config.Basic_block v
    else begin
      let degrade_to_block hi =
        record_degraded t v hi;
        Chunker.chunk_at t.image Config.Basic_block v
      in
      match Chunker.chunk_function t.image v with
      | c ->
        if Array.length c.instrs > Chunker.max_function_instrs then
          degrade_to_block (v + Chunker.span_bytes c)
        else c
      | exception Chunker.Bad_address a when a > v -> degrade_to_block a
      | exception Chunker.Trap_in_source a when a > v -> degrade_to_block a
      (* carried address = [v]: the requested address itself is bad —
         that is the caller's error in any granularity, propagate *)
    end

let resident_oracle t v =
  match Tcache.lookup t.tc v with
  | Some b -> Some (b.id, b.paddr)
  | None -> None

let bytes_of_words (words : int array) =
  let b = Bytes.create (4 * Array.length words) in
  Array.iteri (fun i w -> Bytes.set_int32_le b (4 * i) (Int32.of_int w)) words;
  b

let word_of_bytes b i =
  Int32.to_int (Bytes.get_int32_le b (4 * i)) land 0xFFFFFFFF

let words_of_bytes b = Array.init (Bytes.length b / 4) (word_of_bytes b)
