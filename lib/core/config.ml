type chunking = Basic_block | Procedure
type eviction = Flush_all | Fifo | Lru | Rrip | Trrip

(* The one place the CLI flag, the pretty-printer and the policy sweep
   all draw the valid-policy set from; adding a policy here is what
   makes it exist everywhere. *)
let eviction_table =
  [ ("fifo", Fifo); ("flush", Flush_all); ("lru", Lru); ("rrip", Rrip);
    ("trrip", Trrip) ]

let eviction_name ev =
  match List.find_opt (fun (_, e) -> e = ev) eviction_table with
  | Some (n, _) -> n
  | None -> assert false (* the table is total by construction *)

let eviction_of_name n =
  List.assoc_opt n eviction_table

type granularity = Block | Function

(* Same single-table discipline as [eviction_table]: the CLI flag, the
   pretty-printer and the gransweep grid all read this. *)
let granularity_table = [ ("block", Block); ("function", Function) ]

let granularity_name g =
  match List.find_opt (fun (_, x) -> x = g) granularity_table with
  | Some (n, _) -> n
  | None -> assert false (* the table is total by construction *)

let granularity_of_name n = List.assoc_opt n granularity_table

let lookup_cycles = 12
let patch_cycles = 4
let miss_fixed_cycles = 30
let translate_cycles_per_word = 2
let scrub_cycles_per_word = 2
let retry_backoff_cycles = 64
let timeout_cycles = 1000
let quantum = 64

type t = {
  tcache_bytes : int;
  tcache_base : int;
  chunking : chunking;
  eviction : eviction;
  net : Netmodel.t;
  max_retries : int;
  audit : bool;
  engine : Machine.Cpu.engine;
  prefetch_degree : int;
  staging_chunks : int;
  granularity : granularity;
  harts : int;
  shards : int;
  sched_seed : int;
}

let make ?(tcache_bytes = 48 * 1024) ?(tcache_base = 0x10000)
    ?(chunking = Basic_block) ?(eviction = Fifo) ?net ?(max_retries = 8)
    ?(audit = false) ?(engine = Machine.Cpu.Decoded) ?(prefetch_degree = 0)
    ?(staging_chunks = 8) ?(granularity = Block) ?(harts = 1) ?(shards = 1)
    ?(sched_seed = 1) () =
  let net = match net with Some n -> n | None -> Netmodel.local () in
  if tcache_bytes < 64 then invalid_arg "Config.make: tcache too small";
  if tcache_base land 3 <> 0 then invalid_arg "Config.make: unaligned base";
  if max_retries < 0 then invalid_arg "Config.make: negative max_retries";
  if prefetch_degree < 0 then
    invalid_arg "Config.make: negative prefetch_degree";
  if staging_chunks < 0 then invalid_arg "Config.make: negative staging_chunks";
  if granularity = Function && chunking = Procedure then
    invalid_arg
      "Config.make: function granularity subsumes procedure chunking; use \
       basic-block chunking";
  if harts < 1 then invalid_arg "Config.make: harts must be >= 1";
  if shards < 1 then invalid_arg "Config.make: shards must be >= 1";
  if shards > 1 && tcache_bytes < 16 * shards then
    invalid_arg "Config.make: tcache too small for that many shards";
  {
    tcache_bytes;
    tcache_base;
    chunking;
    eviction;
    net;
    max_retries;
    audit;
    engine;
    prefetch_degree;
    staging_chunks;
    granularity;
    harts;
    shards;
    sched_seed;
  }

let sparc_prototype ?tcache_bytes () =
  make ?tcache_bytes ~chunking:Basic_block ~eviction:Fifo
    ~net:(Netmodel.local ()) ()

let arm_prototype ?tcache_bytes () =
  make ?tcache_bytes ~chunking:Procedure ~eviction:Fifo
    ~net:(Netmodel.ethernet_10mbps ()) ()

let pp ppf t =
  Format.fprintf ppf "tcache %dB @0x%x, %s chunks, %s eviction%s"
    t.tcache_bytes t.tcache_base
    (match t.chunking with
    | Basic_block -> "basic-block"
    | Procedure -> "procedure")
    (eviction_name t.eviction)
    (match t.engine with
    | Machine.Cpu.Decoded -> ""
    | Machine.Cpu.Interpretive -> ", interpretive dispatch");
  if t.granularity = Function then
    Format.fprintf ppf ", function granularity (PLT)";
  if t.harts > 1 then Format.fprintf ppf ", %d harts" t.harts;
  if t.shards > 1 then Format.fprintf ppf ", %d shards" t.shards
