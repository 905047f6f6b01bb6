(* The softcache command-line tool.

   Subcommands:
     list                      workloads in the suite
     run      <workload>       run natively and under the SoftCache
     profile  <workload>       flat profile + footprint numbers
     sweep    <workload>       tcache miss-rate curve
     sizing   <workload>       analytic tcache-size prediction (Fig. 7 knee)
     hwsweep  <workload>       hardware-cache miss-rate curve
     dcache   <workload>       run under the software data cache
     fleet    <workload>       one MC serving N clients over a shared link
     asm      <file.s>         assemble and run an ERISC source file *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Log SoftCache controller events (translations, evictions)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let find_workload name =
  match Workloads.Registry.find name with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown workload %S (try: %s)" name
         (String.concat ", " (Workloads.Registry.names ())))

let workload_arg =
  let doc = "Workload name (see $(b,list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let tcache_arg =
  let doc = "Translation-cache size in bytes." in
  Arg.(value & opt int (48 * 1024) & info [ "tcache" ] ~docv:"BYTES" ~doc)

let chunking_arg =
  let doc = "Chunk granularity: $(b,bb) (basic blocks) or $(b,proc)." in
  Arg.(value & opt (enum [ ("bb", Softcache.Config.Basic_block);
                           ("proc", Softcache.Config.Procedure) ])
         Softcache.Config.Basic_block
       & info [ "chunking" ] ~docv:"MODE" ~doc)

(* Both the accepted values and the self-documentation come from
   [Config.eviction_table], so a policy added there is immediately
   accepted, listed in --help, and rejected-with-the-valid-set when
   misspelled — no second list to keep in sync. *)
let eviction_arg =
  let doc =
    Printf.sprintf "Eviction policy: %s."
      (String.concat " or "
         (List.map
            (fun (n, _) -> Printf.sprintf "$(b,%s)" n)
            Softcache.Config.eviction_table))
  in
  Arg.(value & opt (enum Softcache.Config.eviction_table)
         Softcache.Config.Fifo
       & info [ "eviction" ] ~docv:"POLICY" ~doc)

(* Same table-driven scheme as --eviction: values, --help text and the
   misspelling message all come from [Config.granularity_table]. *)
let granularity_arg =
  let doc =
    Printf.sprintf
      "Caching unit: %s. $(b,function) caches whole-function units and \
       routes calls through a PLT-style indirection table; functions too \
       large to cache degrade to block granularity individually."
      (String.concat " or "
         (List.map
            (fun (n, _) -> Printf.sprintf "$(b,%s)" n)
            Softcache.Config.granularity_table))
  in
  Arg.(value & opt (enum Softcache.Config.granularity_table)
         Softcache.Config.Block
       & info [ "granularity" ] ~docv:"UNIT" ~doc)

let network_arg =
  let doc = "Interconnect: $(b,local) (SPARC prototype) or $(b,ethernet) \
             (ARM prototype, 10 Mbps)." in
  Arg.(value & opt (enum [ ("local", `Local); ("ethernet", `Ethernet) ])
         `Local
       & info [ "net" ] ~docv:"NET" ~doc)

(* --faults seed=7,drop=0.05,corrupt=0.01,dup=0.02,spike=0.1,spike-cycles=20000 *)
let faults_conv =
  let parse s =
    let seed = ref 1 and spike_cycles = ref 10_000 in
    let drop = ref 0.0 and corrupt = ref 0.0 and dup = ref 0.0
    and spike = ref 0.0 in
    let field kv =
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "bad fault field %S (want key=value)" kv)
      | Some i -> (
        let k = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let into r = match int_of_string_opt v with
          | Some n -> r := n; Ok ()
          | None -> Error (Printf.sprintf "%s: not an integer: %S" k v)
        in
        let fnto r = match float_of_string_opt v with
          | Some f -> r := f; Ok ()
          | None -> Error (Printf.sprintf "%s: not a number: %S" k v)
        in
        match k with
        | "seed" -> into seed
        | "spike-cycles" -> into spike_cycles
        | "drop" -> fnto drop
        | "corrupt" -> fnto corrupt
        | "dup" -> fnto dup
        | "spike" -> fnto spike
        | _ ->
          Error
            (Printf.sprintf
               "unknown fault field %S (want seed, drop, corrupt, dup, \
                spike, spike-cycles)" k))
    in
    let rec all = function
      | [] -> (
        match
          Netmodel.Faults.make ~seed:!seed ~drop:!drop ~corrupt:!corrupt
            ~duplicate:!dup ~delay_spike:!spike ~spike_cycles:!spike_cycles
            ()
        with
        | f -> Ok f
        | exception Invalid_argument m -> Error m)
      | kv :: rest -> ( match field kv with Ok () -> all rest | Error _ as e -> e)
    in
    match all (String.split_on_char ',' s) with
    | Ok f -> Ok f
    | Error m -> Error (`Msg m)
  in
  let print ppf f = Netmodel.Faults.pp ppf f in
  Arg.conv (parse, print)

let faults_arg =
  let doc =
    "Inject interconnect faults: comma-separated $(b,seed=N), $(b,drop=P), \
     $(b,corrupt=P), $(b,dup=P), $(b,spike=P), $(b,spike-cycles=N). \
     Probabilities are per message; the schedule is deterministic in the \
     seed."
  in
  Arg.(value & opt (some faults_conv) None
       & info [ "faults" ] ~docv:"SPEC" ~doc)

let audit_arg =
  let doc =
    "Run the tcache invariant auditor after every translation, patch, \
     eviction and flush (slow; fails loudly on any bookkeeping violation)."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

let engine_arg =
  let doc =
    "CPU dispatch engine: $(b,decoded) (predecode cache, the default) or \
     $(b,interp) (re-decode every fetch; the differential-testing \
     reference)."
  in
  Arg.(value & opt (enum [ ("decoded", Machine.Cpu.Decoded);
                           ("interp", Machine.Cpu.Interpretive) ])
         Machine.Cpu.Decoded
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let prefetch_arg =
  let doc =
    "Ship up to $(docv) predicted-next chunks with every demand miss in one \
     batched frame (0 disables prefetch). Candidates are the chunk's static \
     successors, ranked by a profiling pre-run."
  in
  Arg.(value & opt int 0 & info [ "prefetch" ] ~docv:"N" ~doc)

let staging_arg =
  let doc =
    "Bound on the client-side staging buffer holding prefetched chunks \
     awaiting first touch."
  in
  Arg.(value & opt int 8 & info [ "staging" ] ~docv:"N" ~doc)

let trace_out_arg =
  let doc =
    "Record a cycle-stamped structured event trace and write it to $(docv) \
     (format per $(b,--trace-format)). Tracing is architecturally \
     invisible: the traced run is cycle- and counter-identical to an \
     untraced one."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace export format: $(b,jsonl) (one event object per line) or \
     $(b,chrome) (Chrome trace-event JSON — load into Perfetto or \
     chrome://tracing)."
  in
  Arg.(value & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
       & info [ "trace-format" ] ~docv:"FMT" ~doc)

let harts_arg =
  let doc =
    "Run the CC sharded across $(docv) hart contexts sharing one tcache: a \
     deterministic seeded scheduler interleaves them, concurrent misses for \
     the same chunk coalesce onto the in-flight fill, and suspended harts \
     hold read leases on their parked blocks. 1 = the solo controller."
  in
  Arg.(value & opt int 1 & info [ "harts" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Partition the tcache into $(docv) per-shard arenas (chunks home by \
     address, lookups cross shards). 1 = one shared arena."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let sched_seed_arg =
  let doc =
    "Seed for the hart interleaving scheduler; the schedule (and thus the \
     whole run) is deterministic in it."
  in
  Arg.(value & opt int 1 & info [ "sched-seed" ] ~docv:"SEED" ~doc)

let trace_limit_arg =
  let doc =
    "Trace ring capacity: at most $(docv) events are retained; on overflow \
     the oldest are overwritten and the drop count is reported."
  in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok n
      | _ ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt positive 65_536 & info [ "trace-limit" ] ~docv:"N" ~doc)

let print_trace_summary ~total tr =
  let s = Trace.summary tr in
  Report.trace_summary ~total ~execute:s.Trace.s_execute
    ~translate:s.Trace.s_translate ~wire:s.Trace.s_wire ~trap:s.Trace.s_trap
    ~dcache:s.Trace.s_dcache ~patch:s.Trace.s_patch ~scrub:s.Trace.s_scrub
    ~lookup:s.Trace.s_lookup ~events:s.Trace.s_emitted
    ~dropped:s.Trace.s_dropped ~capacity:s.Trace.s_capacity

let make_config ?faults ?(audit = false) ?(engine = Machine.Cpu.Decoded)
    ?(prefetch = 0) ?(staging = 8) ?(granularity = Softcache.Config.Block)
    ?(harts = 1) ?(shards = 1) ?(sched_seed = 1) tcache chunking eviction
    network =
  let net =
    match network with
    | `Local -> Netmodel.local ?faults ()
    | `Ethernet -> Netmodel.ethernet_10mbps ?faults ()
  in
  Softcache.Config.make ~tcache_bytes:tcache ~chunking ~eviction ~net ~audit
    ~engine ~prefetch_degree:prefetch ~staging_chunks:staging ~granularity
    ~harts ~shards ~sched_seed ()

let exit_too_small =
  Cmd.Exit.info 4
    ~doc:
      "when the tcache is too small: a single chunk does not fit it, or \
       stubs and pinned blocks crowd out every placement."

(* A tcache that cannot hold the workload is a sizing error, not a
   crash: name the chunk that does not fit, or the crowded tcache, in
   one line and exit 4. *)
let tcache_guard ~tcache ~shards f =
  let where =
    if shards > 1 then Printf.sprintf "%d-byte tcache (%d shards)" tcache shards
    else Printf.sprintf "%d-byte tcache" tcache
  in
  try f () with
  | Softcache.Controller.Chunk_too_large vaddr ->
    Printf.eprintf "tcache too small: the chunk at 0x%x does not fit the %s\n"
      vaddr where;
    4
  | Softcache.Controller.Tcache_too_small ->
    Printf.eprintf
      "tcache too small: stubs and pinned blocks crowd out every placement \
       in the %s\n"
      where;
    4

let list_cmd =
  let run () =
    List.iter
      (fun (e : Workloads.Registry.entry) ->
        Printf.printf "%-14s %s\n" e.name e.description)
      Workloads.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workload suite") Term.(const run $ const ())

let run_cmd =
  let run name tcache chunking eviction granularity network faults audit
      engine prefetch staging harts shards sched_seed trace_out trace_format
      trace_limit verbose =
    setup_logs verbose;
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      Format.printf "%a@." Isa.Image.pp_summary img;
      let native = Softcache.Runner.native img in
      let cfg =
        make_config ?faults ~audit ~engine ~prefetch ~staging ~granularity
          ~harts ~shards ~sched_seed tcache chunking eviction network
      in
      (* profile-guided oracles: one profiling pre-run supplies the
         prefetch hot-set ranker and the trrip block-temperature prior *)
      let prof =
        if prefetch > 0 || eviction = Softcache.Config.Trrip then
          Some (fst (Profiler.profile img))
        else None
      in
      let ranker =
        if prefetch > 0 then
          Option.map
            (fun p -> fun ~lo ~hi -> Profiler.samples_in p ~lo ~hi)
            prof
        else None
      in
      (* trrip primes its temperature prior only in deep thrash: the
         sizing estimate decides, and around or above the knee the
         unprimed policy decides exactly like rrip *)
      let temperature, trrip_note =
        match (eviction, prof) with
        | Softcache.Config.Trrip, Some p ->
          let est =
            Softcache.Sizing.estimate ~image:img
              ~chunking:cfg.Softcache.Config.chunking
              ~samples_in:(fun ~lo ~hi -> Profiler.samples_in p ~lo ~hi)
              ~sizes:[] ()
          in
          if Softcache.Sizing.deep_thrash est ~tcache_bytes:tcache then
            ( Some (Profiler.temperature_classifier p),
              Some
                (Printf.sprintf
                   "primed (predicted need %d B, tcache %d B: deep thrash)"
                   est.Softcache.Sizing.predicted_bytes tcache) )
          else
            ( None,
              Some
                (Printf.sprintf
                   "unprimed (predicted need %d B, tcache %d B: deciding as \
                    rrip)"
                   est.Softcache.Sizing.predicted_bytes tcache) )
        | _ -> (None, None)
      in
      let audits = ref None in
      let tracer = ref None in
      let prepare (ctrl : Softcache.Controller.t) =
        ctrl.prefetch_ranker <- ranker;
        Softcache.Controller.set_temperature_oracle ctrl temperature;
        (match trace_out with
        | Some _ ->
          let tr = Trace.create ~limit:trace_limit () in
          Softcache.Controller.attach_tracer ctrl tr;
          tracer := Some tr
        | None -> ());
        audits := Check.Audit.install_if_configured ctrl
      in
      tcache_guard ~tcache ~shards @@ fun () ->
      if harts > 1 then begin
        (* sharded multi-hart path: N hart contexts replay the workload
           over one shared tcache under the seeded interleaving
           scheduler; Runner's solo drive does not apply *)
        let ctrl = Softcache.Controller.create cfg img in
        prepare ctrl;
        let sh = Softcache.Shard.attach ctrl in
        ignore (Softcache.Shard.run sh);
        Report.kv "native cycles" (string_of_int native.cycles);
        Report.kv "harts"
          (Printf.sprintf "%d over %d tcache shard(s), sched seed %d" harts
             shards sched_seed);
        Report.kv "makespan" (string_of_int (Softcache.Shard.makespan sh));
        Report.kv "total cpu cycles"
          (string_of_int (Softcache.Shard.total_cycles sh));
        List.iter
          (fun (h : Softcache.Shard.hart) ->
            Format.printf "  %a@." Softcache.Shard.pp_hart h)
          (Softcache.Shard.harts sh);
        Report.kv "fills"
          (Printf.sprintf "%d (+%d coalesced joins)" ctrl.stats.fills
             ctrl.stats.fills_coalesced);
        let ok =
          List.for_all
            (fun (h : Softcache.Shard.hart) ->
              h.h_cpu.halted && Machine.Cpu.outputs h.h_cpu = native.outputs)
            (Softcache.Shard.harts sh)
        in
        Report.kv "outputs match (all harts)" (string_of_bool ok);
        (match !audits with
        | Some n ->
          Report.kv "audit" (Printf.sprintf "on, %d audits passed" !n)
        | None -> ());
        let shard_viols = if audit then Check.Audit.shards sh else [] in
        if audit then
          Report.kv "shard audit"
            (if shard_viols = [] then "clean"
             else Printf.sprintf "%d violations" (List.length shard_viols));
        List.iter
          (fun v ->
            Format.printf "  audit violation: %a@." Check.Audit.pp_violation
              v)
          shard_viols;
        Format.printf "  stats: %a@." Softcache.Stats.pp ctrl.stats;
        if ok && shard_viols = [] then 0 else 2
      end
      else begin
      let cached, ctrl = Softcache.Runner.cached_robust ~prepare cfg img in
      Report.kv "native cycles" (string_of_int native.cycles);
      Report.kv "softcache cycles" (string_of_int cached.cycles);
      Report.kv "status"
        (Format.asprintf "%a" Softcache.Runner.pp_status cached.status);
      (match cached.status with
      | Softcache.Runner.Finished _ ->
        Report.kv "relative execution time"
          (Printf.sprintf "%.3f"
             (if native.cycles = 0 then nan
              else float_of_int cached.cycles /. float_of_int native.cycles));
        Report.kv "tcache miss rate"
          (Printf.sprintf "%.6f (%d translations / %d instrs)"
             (Softcache.Stats.miss_rate ctrl.stats ~retired:cached.retired)
             ctrl.stats.translations cached.retired)
      | Softcache.Runner.Unavailable _ -> ());
      let ok =
        cached.status = Softcache.Runner.Finished Machine.Cpu.Halted
        && native.outputs = cached.outputs
      in
      Report.kv "outputs match" (string_of_bool ok);
      Report.transport
        ~injected:(not (Netmodel.Faults.is_none (Netmodel.faults cfg.net)))
        ~drops:(Netmodel.drops cfg.net)
        ~corruptions:(Netmodel.corruptions cfg.net)
        ~duplicates:(Netmodel.duplicates cfg.net)
        ~delay_spikes:(Netmodel.delay_spikes cfg.net)
        ~retries:ctrl.stats.net_retries
        ~max_chunk_retries:ctrl.stats.max_chunk_retries
        ~timeouts:ctrl.stats.net_timeouts
        ~crc_failures:ctrl.stats.crc_failures
        ~recoveries:ctrl.stats.recoveries
        ~chunk_failures:ctrl.stats.chunk_failures;
      Report.prefetch ~issued:ctrl.stats.prefetch_issued
        ~installs:ctrl.stats.prefetch_installs
        ~wasted:ctrl.stats.prefetch_wasted
        ~crc_failures:ctrl.stats.prefetch_crc_failures
        ~batches:ctrl.stats.batches ~batch_chunks:ctrl.stats.batch_chunks
        ~max_batch_chunks:ctrl.stats.max_batch_chunks;
      (let module P = (val ctrl.policy : Softcache.Policy.S) in
       Report.policy ~name:P.name ~entries:ctrl.stats.policy_entries
         ~victim:ctrl.stats.evicted_victim
         ~collateral:ctrl.stats.evicted_collateral
         ~stub_growth:ctrl.stats.evicted_stub_growth
         ~invalidated:ctrl.stats.evicted_invalidated
         ~flushed:ctrl.stats.evicted_flushed
         ~ages:(Softcache.Stats.victim_ages ctrl.stats));
      (match trrip_note with
      | Some s -> Report.kv "trrip prior" s
      | None -> ());
      (match !audits with
      | Some n -> Report.kv "audit" (Printf.sprintf "on, %d audits passed" !n)
      | None -> ());
      (match (trace_out, !tracer) with
      | Some path, Some tr ->
        Trace.export tr ~format:trace_format path;
        Report.kv "trace"
          (Printf.sprintf "%d events -> %s (%s)" (Trace.emitted tr) path
             (match trace_format with `Jsonl -> "jsonl" | `Chrome -> "chrome"));
        print_trace_summary ~total:ctrl.cpu.cycles tr
      | _ -> ());
      Format.printf "  stats: %a@." Softcache.Stats.pp ctrl.stats;
      Format.printf "  %a@." Netmodel.pp cfg.net;
      (match cached.status with
      | Softcache.Runner.Unavailable _ -> 3
      | Softcache.Runner.Finished _ -> if ok then 0 else 2)
      end
  in
  Cmd.v
    (Cmd.info "run"
       ~exits:
         (Cmd.Exit.info 2 ~doc:"on an output mismatch or an audit violation."
         :: Cmd.Exit.info 3
              ~doc:"when a chunk stays unavailable after every retry."
         :: exit_too_small :: Cmd.Exit.defaults)
       ~doc:"Run a workload natively and under the SoftCache")
    Term.(const run $ workload_arg $ tcache_arg $ chunking_arg $ eviction_arg
          $ granularity_arg $ network_arg $ faults_arg $ audit_arg
          $ engine_arg $ prefetch_arg $ staging_arg $ harts_arg $ shards_arg
          $ sched_seed_arg $ trace_out_arg $ trace_format_arg
          $ trace_limit_arg $ verbose_arg)

let profile_cmd =
  let run name =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let prof, cpu = Profiler.profile img in
      Format.printf "%a@." Profiler.pp prof;
      Report.kv "retired instructions" (string_of_int cpu.retired);
      Report.kv "static .text" (Report.fmt_bytes (Isa.Image.static_text_bytes img));
      Report.kv "dynamic .text" (Report.fmt_bytes (Profiler.dynamic_text_bytes prof));
      Report.kv "hot code (90%)" (Report.fmt_bytes (Profiler.hot_bytes prof));
      0
  in
  Cmd.v (Cmd.info "profile" ~doc:"Flat profile and footprints")
    Term.(const run $ workload_arg)

let sweep_cmd =
  let run name chunking =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "tcache miss rate vs size — %s" name)
          ~xlabel:"tcache KB" ~ylabel:"miss rate %"
      in
      List.iter
        (fun kb ->
          let cfg =
            Softcache.Config.make ~tcache_bytes:(kb * 1024 / 8) ~chunking ()
          in
          (* kb is in eighths of a KB to get sub-KB points *)
          match Softcache.Runner.cached cfg img with
          | cached, ctrl ->
            Report.Series.add series
              (float_of_int kb /. 8.0)
              (100.0
              *. Softcache.Stats.miss_rate ctrl.stats ~retired:cached.retired)
          | exception Softcache.Controller.Chunk_too_large _ -> ())
        [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 800 ];
      Report.Series.print series;
      0
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Software-cache miss rate vs tcache size")
    Term.(const run $ workload_arg $ chunking_arg)

let threshold_arg =
  let doc =
    "Dominant-set cumulative sample share (the paper's gprof 90% rule)."
  in
  Arg.(value & opt float 0.9 & info [ "threshold" ] ~docv:"SHARE" ~doc)

let headroom_arg =
  let doc =
    "Inflation over the rewritten dominant footprint, covering the \
     persistent stub area, sweep fragmentation and tail duplication."
  in
  Arg.(value & opt float 1.4 & info [ "headroom" ] ~docv:"FACTOR" ~doc)

let sizing_cmd =
  let run name chunking threshold headroom =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry -> (
      let img = entry.build () in
      let prof, _ = Profiler.profile img in
      match
        Softcache.Sizing.estimate ~threshold ~headroom ~image:img ~chunking
          ~samples_in:(fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
          ~sizes:[ 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]
          ()
      with
      | exception Invalid_argument m -> prerr_endline m; 1
      | est ->
        Report.kv "chunks walked" (string_of_int est.chunks_walked);
        Report.kv "dominant chunks"
          (Printf.sprintf "%d (%.0f%% of samples)" est.dominant_chunks
             (100.0 *. threshold));
        Report.kv "dominant source"
          (Report.fmt_bytes est.dominant_source_bytes);
        Report.kv "dominant rewritten"
          (Report.fmt_bytes est.dominant_tcache_bytes);
        Report.kv "predicted tcache need"
          (Report.fmt_bytes est.predicted_bytes);
        Report.kv "predicted knee"
          (match est.predicted_knee with
          | Some b -> Report.fmt_bytes b
          | None -> "beyond 64 KB");
        (* deep_thrash holds exactly below half the predicted need *)
        Report.kv "trrip prior primed below"
          (Report.fmt_bytes (est.predicted_bytes / 2));
        let t =
          Report.Table.create ~title:"hottest chunks"
            ~columns:[ "vaddr"; "source"; "rewritten"; "samples" ]
        in
        List.iteri
          (fun i (c : Softcache.Sizing.chunk_info) ->
            if i < 12 && c.ci_samples > 0 then
              Report.Table.add_row t
                [
                  Printf.sprintf "0x%x" c.ci_vaddr;
                  Report.fmt_bytes c.ci_span_bytes;
                  Report.fmt_bytes c.ci_tcache_bytes;
                  string_of_int c.ci_samples;
                ])
          est.chunks;
        Report.Table.print t;
        0)
  in
  Cmd.v
    (Cmd.info "sizing"
       ~doc:
         "Predict the smallest acceptable tcache size from a static CFG \
          walk plus a profiling pre-run (the Fig. 7 knee, analytically)")
    Term.(const run $ workload_arg $ chunking_arg $ threshold_arg
          $ headroom_arg)

let hwsweep_cmd =
  let run name =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let sizes = [ 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768 ] in
      let caches =
        List.map (fun s -> (s, Hwcache.create ~size_bytes:s ())) sizes
      in
      let cpu = Machine.Cpu.of_image img in
      cpu.on_fetch <-
        Some (fun a -> List.iter (fun (_, c) -> ignore (Hwcache.access c a)) caches);
      let _ = Machine.Cpu.run cpu in
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "hardware I-cache miss rate vs size — %s" name)
          ~xlabel:"cache KB" ~ylabel:"miss rate %"
      in
      List.iter
        (fun (s, c) ->
          Report.Series.add series
            (float_of_int s /. 1024.0)
            (100.0 *. Hwcache.miss_rate c))
        caches;
      Report.Series.print series;
      0
  in
  Cmd.v
    (Cmd.info "hwsweep" ~doc:"Hardware-cache miss rate vs size (baseline)")
    Term.(const run $ workload_arg)

let dcache_cmd =
  let run name trace_out trace_format trace_limit =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let cfg = Dcache.Config.make () in
      let tracer =
        match trace_out with
        | Some _ -> Some (Trace.create ~limit:trace_limit ())
        | None -> None
      in
      let outcome, cpu, stats = Dcache.Sim.run ?tracer cfg img in
      Report.kv "outcome"
        (match outcome with
        | Machine.Cpu.Halted -> "halted"
        | Machine.Cpu.Out_of_fuel -> "out of fuel");
      Format.printf "  %a@." Dcache.Sim.pp_stats stats;
      Report.kv "cycles (with d-cache)" (string_of_int cpu.cycles);
      Report.kv "guaranteed latency"
        (Printf.sprintf "%d cycles (slow hit)"
           (Dcache.Sim.guaranteed_latency_cycles cfg));
      (match (trace_out, tracer) with
      | Some path, Some tr ->
        Trace.export tr ~format:trace_format path;
        Report.kv "trace"
          (Printf.sprintf "%d events -> %s (%s)" (Trace.emitted tr) path
             (match trace_format with `Jsonl -> "jsonl" | `Chrome -> "chrome"));
        print_trace_summary ~total:cpu.cycles tr
      | _ -> ());
      0
  in
  Cmd.v (Cmd.info "dcache" ~doc:"Run under the Section 3 software data cache")
    Term.(const run $ workload_arg $ trace_out_arg $ trace_format_arg
          $ trace_limit_arg)

let fullsystem_cmd =
  let run name tcache =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let native = Softcache.Runner.native img in
      let icfg = Softcache.Config.make ~tcache_bytes:tcache () in
      let dcfg = Dcache.Config.make () in
      let full, _ = Dcache.Fullsystem.run icfg dcfg img in
      Report.kv "local memory"
        (Report.fmt_bytes (Dcache.Fullsystem.local_memory_bytes icfg dcfg));
      Report.kv "I+D slowdown"
        (Printf.sprintf "%.3f"
           (float_of_int full.cycles /. float_of_int native.cycles));
      Format.printf "  icache: %a@." Softcache.Stats.pp full.icache_stats;
      Format.printf "  dcache: %a@." Dcache.Sim.pp_stats full.dcache_stats;
      Report.kv "outputs match" (string_of_bool (full.outputs = native.outputs));
      if full.outputs = native.outputs then 0 else 2
  in
  Cmd.v
    (Cmd.info "fullsystem"
       ~doc:"Run with the complete memory system: tcache + scache + dcache")
    Term.(const run $ workload_arg $ tcache_arg)

let fleet_cmd =
  let clients_arg =
    let doc = "Number of CC clients sharing the one MC uplink." in
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let no_dedup_arg =
    let doc =
      "Disable the MC's shared content-addressed chunk cache (each client's \
       requests are chunked, CRC-stamped and coalesced independently)."
    in
    Arg.(value & flag & info [ "no-dedup" ] ~doc)
  in
  let no_batching_arg =
    let doc =
      "Disable frame batching: concurrent requests never piggyback on an \
       open frame."
    in
    Arg.(value & flag & info [ "no-batching" ] ~doc)
  in
  let fuel_arg =
    let doc = "Instruction budget per client." in
    Arg.(value & opt int 2_000_000 & info [ "fuel" ] ~docv:"N" ~doc)
  in
  let workloads_arg =
    let doc =
      "Heterogeneous fleet: comma-separated workload names assigned \
       round-robin to the clients (client $(i,i) runs the $(i,i) mod \
       $(i,len)-th name). Overrides the positional workload."
    in
    Arg.(value & opt (some string) None
         & info [ "workloads" ] ~docv:"W1,W2,..." ~doc)
  in
  let auto_size_arg =
    let doc =
      "Size each client's tcache by the analytic model: a profiling \
       pre-run of its workload feeds $(b,Sizing.estimate), and a client \
       configured below the predicted need is admitted at the predicted \
       size instead. The summary reports predicted vs configured."
    in
    Arg.(value & flag & info [ "auto-size" ] ~doc)
  in
  let run name clients no_dedup no_batching fuel tcache chunking eviction
      granularity harts shards sched_seed workloads auto_size network faults
      audit verbose =
    setup_logs verbose;
    let named =
      match workloads with
      | None -> Ok [ name ]
      | Some s ->
        Ok (List.filter (fun w -> w <> "") (String.split_on_char ',' s))
    in
    let resolve acc n =
      match (acc, find_workload n) with
      | (Error _ as e), _ -> e
      | Ok _, Error e -> Error e
      | Ok es, Ok e -> Ok (es @ [ e ])
    in
    match Result.bind named (List.fold_left resolve (Ok [])) with
    | Error e -> prerr_endline e; 1
    | Ok [] -> prerr_endline "no workloads given"; 1
    | Ok entries -> (
      let images =
        Array.of_list
          (List.map (fun (e : Workloads.Registry.entry) -> e.build ()) entries)
      in
      let net =
        match network with
        | `Local -> Netmodel.local ?faults ()
        | `Ethernet -> Netmodel.ethernet_10mbps ?faults ()
      in
      let mk_cfg _ =
        Softcache.Config.make ~tcache_bytes:tcache ~chunking ~eviction
          ~granularity ~harts ~shards ~sched_seed ~net ()
      in
      (* the analytic admission model: one profiling pre-run per distinct
         image (memoized), then Sizing.estimate's predicted need *)
      let sizing =
        if not auto_size then None
        else begin
          let memo = Hashtbl.create 4 in
          Some
            (fun i ->
              let img = images.(i mod Array.length images) in
              match Hashtbl.find_opt memo img.Isa.Image.name with
              | Some p -> p
              | None ->
                let prof, _ = Profiler.profile img in
                let est =
                  Softcache.Sizing.estimate ~image:img ~chunking
                    ~samples_in:(fun ~lo ~hi ->
                      Profiler.samples_in prof ~lo ~hi)
                    ~sizes:[] ()
                in
                let p = Some est.Softcache.Sizing.predicted_bytes in
                Hashtbl.replace memo img.Isa.Image.name p;
                p)
        end
      in
      match
        Fleet.config ~clients ~dedup:(not no_dedup) ~batching:(not no_batching)
          ()
      with
      | exception Invalid_argument m -> prerr_endline m; 1
      | config ->
        let fl = Fleet.create ~config ?sizing ~net mk_cfg images in
        tcache_guard ~tcache ~shards @@ fun () ->
        Fleet.run ~fuel fl;
        Fleet.print_summary fl;
        (* every halted client against a native run of its own image *)
        let natives = ref [] in
        let native img =
          match List.assq_opt img !natives with
          | Some (r : Softcache.Runner.result) -> r.outputs
          | None ->
            let r = Softcache.Runner.native img in
            natives := (img, r) :: !natives;
            r.outputs
        in
        let sessions = Array.to_list (Fleet.sessions fl) in
        let halted =
          List.filter (fun s -> Fleet.outcome s = Fleet.Halted) sessions
        in
        let mismatched =
          List.filter
            (fun s ->
              let want = native (Fleet.image s) in
              match Fleet.shard s with
              | Some sh ->
                List.exists
                  (fun (h : Softcache.Shard.hart) ->
                    Machine.Cpu.outputs h.h_cpu <> want)
                  (Softcache.Shard.harts sh)
              | None ->
                Machine.Cpu.outputs (Fleet.controller s).cpu <> want)
            halted
        in
        Report.kv "outputs match native"
          (Printf.sprintf "%b (%d of %d clients halted%s)" (mismatched = [])
             (List.length halted) (List.length sessions)
             (match mismatched with
             | [] -> ""
             | l ->
               "; differ: "
               ^ String.concat ","
                   (List.map (fun s -> string_of_int (Fleet.session_id s)) l)));
        let unavailable =
          List.exists
            (fun s ->
              match Fleet.outcome s with
              | Fleet.Unavailable _ -> true
              | Fleet.Running | Fleet.Halted | Fleet.Out_of_fuel -> false)
            sessions
        in
        let violations = if audit then Check.Audit.fleet fl else [] in
        if audit then begin
          Report.kv "audit"
            (if violations = [] then "clean"
             else Printf.sprintf "%d violations" (List.length violations));
          List.iter
            (fun v ->
              Format.printf "  audit violation: %a@." Check.Audit.pp_violation
                v)
            violations
        end;
        if violations <> [] || mismatched <> [] then 2
        else if unavailable then 3
        else 0)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:
              "on an audit violation, or when a halted client's outputs \
               differ from a native run of its image."
         :: Cmd.Exit.info 3
              ~doc:
                "when a chunk stays unavailable to some client after every \
                 retry (and no exit-2 condition holds)."
         :: exit_too_small :: Cmd.Exit.defaults)
       ~doc:"Simulate one MC serving N clients over a shared link")
    Term.(const run $ workload_arg $ clients_arg $ no_dedup_arg
          $ no_batching_arg $ fuel_arg $ tcache_arg $ chunking_arg
          $ eviction_arg $ granularity_arg $ harts_arg $ shards_arg
          $ sched_seed_arg $ workloads_arg $ auto_size_arg $ network_arg
          $ faults_arg $ audit_arg $ verbose_arg)

let trace_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write CSV there (default stdout).")
  in
  let limit_arg =
    Arg.(value & opt int 10_000
         & info [ "limit" ] ~docv:"N" ~doc:"Record at most N events.")
  in
  let run name out limit =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let cpu = Machine.Cpu.of_image img in
      let buf = Buffer.create (limit * 16) in
      Buffer.add_string buf "kind,address\n";
      let n = ref 0 in
      let record kind a =
        if !n < limit then begin
          incr n;
          Buffer.add_string buf (Printf.sprintf "%s,0x%x\n" kind a)
        end
      in
      cpu.on_fetch <- Some (record "fetch");
      cpu.on_load <- Some (record "load");
      cpu.on_store <- Some (record "store");
      let _ = Machine.Cpu.run ~fuel:(limit * 2) cpu in
      (match out with
      | Some f -> Out_channel.with_open_text f (fun oc ->
          Out_channel.output_string oc (Buffer.contents buf));
        Printf.printf "wrote %d events to %s\n" !n f
      | None -> print_string (Buffer.contents buf));
      0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Export a fetch/load/store address trace as CSV")
    Term.(const run $ workload_arg $ out_arg $ limit_arg)

let disasm_cmd =
  let tcache_flag =
    Arg.(value & flag
         & info [ "tcache-view" ]
             ~doc:"Run briefly under the SoftCache and dump the rewritten \
                   translation-cache contents instead of the source image.")
  in
  let run name tcache_view =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      if not tcache_view then begin
        print_string (Isa.Disasm.image img);
        0
      end
      else begin
        let ctrl =
          Softcache.Controller.create
            (Softcache.Config.make ~tcache_bytes:4096 ())
            img
        in
        let _ = Softcache.Controller.run ~fuel:50_000 ctrl in
        print_string (Softcache.Debug.summary ctrl);
        print_newline ();
        print_string (Softcache.Debug.dump_blocks ctrl);
        (match Softcache.Debug.disasm_block ctrl img.entry with
        | Some s ->
          Printf.printf "\nentry chunk as rewritten:\n%s" s
        | None -> ());
        0
      end
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble a workload (or its rewritten tcache contents)")
    Term.(const run $ workload_arg $ tcache_flag)

let asm_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"ERISC assembly source")
  in
  let run file tcache =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Isa.Assembler.assemble ~name:file source with
    | Error e -> Printf.eprintf "%s: %s\n" file e; 1
    | Ok img ->
      let native = Softcache.Runner.native img in
      let cfg = Softcache.Config.make ~tcache_bytes:tcache () in
      let cached, ctrl = Softcache.Runner.cached cfg img in
      Report.kv "outputs"
        (String.concat ", " (List.map string_of_int native.outputs));
      Report.kv "native cycles" (string_of_int native.cycles);
      Report.kv "softcache cycles" (string_of_int cached.cycles);
      Report.kv "outputs match" (string_of_bool (native.outputs = cached.outputs));
      Format.printf "  stats: %a@." Softcache.Stats.pp ctrl.stats;
      if native.outputs = cached.outputs then 0 else 2
  in
  Cmd.v (Cmd.info "asm" ~doc:"Assemble and run an ERISC source file")
    Term.(const run $ file_arg $ tcache_arg)

let () =
  let doc = "software caching using dynamic binary rewriting" in
  let info = Cmd.info "softcache" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; profile_cmd; sweep_cmd; sizing_cmd;
            hwsweep_cmd; dcache_cmd; fullsystem_cmd; fleet_cmd; disasm_cmd;
            trace_cmd; asm_cmd ]))
