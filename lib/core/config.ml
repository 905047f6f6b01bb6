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

type t = {
  tcache_bytes : int;
  tcache_base : int;
  chunking : chunking;
  eviction : eviction;
  lookup_cycles : int;
  patch_cycles : int;
  miss_fixed_cycles : int;
  translate_cycles_per_word : int;
  scrub_cycles_per_word : int;
  net : Netmodel.t;
  max_retries : int;
  retry_backoff_cycles : int;
  timeout_cycles : int;
  audit : bool;
  engine : Machine.Cpu.engine;
  prefetch_degree : int;
  staging_chunks : int;
  trace_limit : int;
  granularity : granularity;
  harts : int;
  shards : int;
  sched_seed : int;
  quantum : int;
}

let make ?(tcache_bytes = 48 * 1024) ?(tcache_base = 0x10000)
    ?(chunking = Basic_block) ?(eviction = Fifo) ?(lookup_cycles = 12)
    ?(patch_cycles = 4) ?(miss_fixed_cycles = 30)
    ?(translate_cycles_per_word = 2) ?(scrub_cycles_per_word = 2)
    ?net ?(max_retries = 8)
    ?(retry_backoff_cycles = 64) ?(timeout_cycles = 1000) ?(audit = false)
    ?(engine = Machine.Cpu.Decoded) ?(prefetch_degree = 0)
    ?(staging_chunks = 8) ?(trace_limit = 65536) ?(granularity = Block)
    ?(harts = 1) ?(shards = 1) ?(sched_seed = 1) ?(quantum = 64) () =
  let net = match net with Some n -> n | None -> Netmodel.local () in
  if tcache_bytes < 64 then invalid_arg "Config.make: tcache too small";
  if tcache_base land 3 <> 0 then invalid_arg "Config.make: unaligned base";
  if max_retries < 0 then invalid_arg "Config.make: negative max_retries";
  if retry_backoff_cycles < 0 || timeout_cycles < 0 then
    invalid_arg "Config.make: negative transport cycle cost";
  if prefetch_degree < 0 then
    invalid_arg "Config.make: negative prefetch_degree";
  if staging_chunks < 0 then invalid_arg "Config.make: negative staging_chunks";
  if trace_limit <= 0 then invalid_arg "Config.make: trace_limit must be positive";
  if granularity = Function && chunking = Procedure then
    invalid_arg
      "Config.make: function granularity subsumes procedure chunking; use \
       basic-block chunking";
  if harts < 1 then invalid_arg "Config.make: harts must be >= 1";
  if shards < 1 then invalid_arg "Config.make: shards must be >= 1";
  if shards > 1 && tcache_bytes < 16 * shards then
    invalid_arg "Config.make: tcache too small for that many shards";
  if quantum < 1 then invalid_arg "Config.make: quantum must be >= 1";
  {
    tcache_bytes;
    tcache_base;
    chunking;
    eviction;
    lookup_cycles;
    patch_cycles;
    miss_fixed_cycles;
    translate_cycles_per_word;
    scrub_cycles_per_word;
    net;
    max_retries;
    retry_backoff_cycles;
    timeout_cycles;
    audit;
    engine;
    prefetch_degree;
    staging_chunks;
    trace_limit;
    granularity;
    harts;
    shards;
    sched_seed;
    quantum;
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
