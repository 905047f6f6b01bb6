(* Benchmark harness: regenerates every table and figure of the paper,
   plus the gated sweeps CI runs.

     dune exec bench/main.exe              -- run everything
     dune exec bench/main.exe -- fig5 fig7 -- run selected experiments

   [experiments] at the bottom lists all 24 by name; gated sweeps are
   [sweep] specs run by [run_sweep], and the process exits 1 if any
   gate failed. Absolute numbers come from the simulator's cost model;
   the claims reproduced are the paper's *shapes* (who wins, where the
   knees fall, which ratios hold). *)

(* ------------------------------------------------------------------ *)
(* Shared harness plumbing: registry iteration, best-of-N wall timing,
   gate failures, and the sweep spec with its one runner. *)

(* Gate failures of the experiment being run; the main loop at the bottom
   resets it per experiment and exits nonzero if any experiment failed. *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Report.kv "FAIL" s)
    fmt

(* [] if [ok], else the formatted failure message. *)
let expect ok fmt = Printf.ksprintf (fun s -> if ok then [] else [ s ]) fmt

let audit_gate label = function
  | [] -> ()
  | v :: _ as vs ->
    fail "%s audit: %d violations (first: %s)" label (List.length vs)
      (Format.asprintf "%a" Check.Audit.pp_violation v)

(* Run [f] on each registry entry (default: all) and its built image. *)
let over_registry ?(entries = Workloads.Registry.all) f =
  List.iter (fun (e : Workloads.Registry.entry) -> f e (e.build ())) entries

let image_of name =
  match Workloads.Registry.find name with
  | Some e -> e.build ()
  | None -> invalid_arg name

(* Host wall time of [run (mk ())]: one warmup, then best of [n] —
   construction stays outside the timed region, and best-of damps
   scheduler noise on shared CI runners. *)
let best_of ?(n = 3) mk run =
  ignore (run (mk ()));
  let best = ref infinity in
  for _ = 1 to n do
    let x = mk () in
    let t0 = Unix.gettimeofday () in
    ignore (run x);
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Field [k] of a table row, as the gates read it; [int_at] also reads
   the integer strings of [Fleet.summary_fields]. *)
let int_at row k =
  match List.assoc k row with
  | Report.Table.Int n | Bytes n -> n
  | Str s -> int_of_string s
  | _ -> invalid_arg k

let str_at row k =
  match List.assoc k row with Report.Table.Str s -> s | _ -> invalid_arg k

let bool_at row k = List.assoc k row = Report.Table.Bool true

(* Integer field [k] of the first row whose [keys] fields hold the
   given cells. *)
let lookup rows (keys : (string * Report.Table.cell) list) k =
  List.find_map
    (fun r ->
      if List.for_all (fun (key, c) -> List.assoc key r = c) keys then
        Some (int_at r k)
      else None)
    rows

(* Every grid row must match native outputs. *)
let outputs_gate axis rows =
  List.concat_map
    (fun r ->
      expect (bool_at r "outputs_ok") "%s/%s/%dB: outputs diverge from native"
        (str_at r "name") (str_at r axis) (int_at r "tcache_bytes"))
    rows

(* A lockstep verdict as its [ok; text] cells, failing the gate when it
   does not pass. With [strict] only Equivalent passes (the modes runs
   are meant to finish); otherwise [Lockstep.ok] does, so running out
   of fuel while equal passes too and renders as "ok (fuel, ...)". *)
let verdict_cells ?(strict = false) label v =
  let ok =
    if strict then match v with Check.Lockstep.Equivalent _ -> true | _ -> false
    else Check.Lockstep.ok v
  in
  let text =
    match v with
    | Check.Lockstep.Equivalent { steps } when not strict ->
      Printf.sprintf "ok (%d steps)" steps
    | Out_of_fuel { steps } when not strict ->
      Printf.sprintf "ok (fuel, %d steps)" steps
    | v -> Format.asprintf "%a" Check.Lockstep.pp_verdict v
  in
  if not ok then fail "%s lockstep: %s" label text;
  [ Report.Table.Bool ok; Str text ]

(* The registry-wide lockstep gate: one [name; ok; verdict] row per
   workload, under the JSON key "lockstep". *)
let lockstep_table ?strict what check =
  let t =
    Report.Table.create ~title:("lockstep: " ^ what)
      ~columns:[ "name"; "ok"; "verdict" ]
  in
  over_registry (fun e img ->
      Report.Table.add t
        (Str e.name
        :: verdict_cells ?strict
             (Printf.sprintf "%s (%s)" e.name what)
             (check e img)));
  ("lockstep", t)

(* A sweep, declared once. [grid] runs the cells and returns its tables
   in print order, each under its JSON key; checks no column records
   (audits, lockstep) call [fail] as they go. [gates] reads the rows
   back by key and returns summary fields plus failure messages.
   [run_sweep] prints, gates, and writes [file] with this sweep's own
   failure count. *)
type sweep = {
  name : string;  (** the "benchmark" tag of [file] *)
  title : string;
  file : string;
  grid : unit -> (string * Report.Table.t) list;
  gates :
    (string -> (string * Report.Table.cell) list list) ->
    (string * Report.Table.cell) list * string list;
}

(* [~tally:false] leaves "gate_failures" out of [file] (BENCH_micro.json
   carries none; the exit code reports its gate). *)
let run_sweep ?(tally = true) s () =
  Report.section s.title;
  let tables = s.grid () in
  List.iter (fun (_, t) -> Report.Table.print t) tables;
  let fields, failed =
    s.gates (fun k -> Report.Table.rows (List.assoc k tables))
  in
  List.iter (fun (k, c) -> Report.kv k (Report.Table.text c)) fields;
  List.iter (fail "%s") failed;
  let field k v = Printf.sprintf "  %s: %s" (Report.Table.json (Str k)) v in
  let cell (k, c) = field k (Report.Table.json c) in
  Out_channel.with_open_text s.file (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n"
           ((cell ("benchmark", Str s.name)
            :: List.map (fun (k, t) -> field k (Report.Table.to_json t)) tables)
           @ List.map cell fields
           @ if tally then [ cell ("gate_failures", Int !failures) ] else [])));
  Report.kv "written" s.file

(* ------------------------------------------------------------------ *)
(* Table 1: dynamically- and statically-linked text segment sizes *)

let table1 () =
  Report.section
    "Table 1: application dynamic vs static .text (paper: 21K/193K, 1K/139K, \
     23K/205K, 135K/590K; scaled ~1/8 here)";
  let t =
    Report.Table.create ~title:"text segment sizes"
      ~columns:
        [ "app"; "dynamic .text"; "static .text"; "dyn/static";
          "paper dyn/static" ]
  in
  let paper_ratio =
    [ ("compress95", 21. /. 193.); ("adpcm_encode", 1. /. 139.);
      ("hextobdd", 23. /. 205.); ("mpeg2enc", 135. /. 590.) ]
  in
  over_registry ~entries:Workloads.Registry.table1 (fun e img ->
      let prof, _ = Profiler.profile img in
      let dyn = Profiler.dynamic_text_bytes prof in
      let st = Isa.Image.static_text_bytes img in
      Report.Table.add t
        [ Str e.name; Bytes dyn; Bytes st;
          Float (3, float_of_int dyn /. float_of_int st);
          Float (3, List.assoc e.name paper_ratio) ]);
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 5: relative execution time of the software I-cache *)

let fig5 () =
  Report.section
    "Figure 5: relative execution time, 129.compress-like workload (paper: \
     ideal 1.00, 48KB 1.17, 24KB 1.19, 1KB >> 1)";
  let img = Workloads.Compress.image () in
  let native = Softcache.Runner.native img in
  Report.kv "ideal (native)" "1.000";
  List.iter
    (fun (label, bytes) ->
      let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:bytes () in
      let cached, ctrl = Softcache.Runner.cached cfg img in
      assert (cached.outputs = native.outputs);
      Report.kv label
        (Printf.sprintf "%.3f  (%d translations, %d evicted blocks)"
           (Softcache.Runner.slowdown ~native ~cached)
           ctrl.stats.translations ctrl.stats.evicted_blocks))
    [
      ("48KB tcache (infinite)", 48 * 1024);
      ("24KB tcache", 24 * 1024);
      ("12KB tcache", 12 * 1024);
      ("1KB tcache (thrashes)", 1024);
    ]

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: miss rate vs cache size, hardware vs software *)

let sweep_sizes = [ 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]

let fig6 () =
  Report.section
    "Figure 6: hardware I-cache miss rate vs size (direct-mapped, 16B \
     blocks); knees should sit at each program's working set";
  over_registry ~entries:Workloads.Registry.table1 (fun e img ->
      let caches =
        List.map (fun s -> (s, Hwcache.create ~size_bytes:s ())) sweep_sizes
      in
      let cpu = Machine.Cpu.of_image img in
      cpu.on_fetch <-
        Some
          (fun a -> List.iter (fun (_, c) -> ignore (Hwcache.access c a)) caches);
      let _ = Machine.Cpu.run cpu in
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "%s (hardware)" e.name)
          ~xlabel:"cache KB" ~ylabel:"miss %"
      in
      List.iter
        (fun (s, c) ->
          Report.Series.add series
            (float_of_int s /. 1024.)
            (100. *. Hwcache.miss_rate c))
        caches;
      Report.Series.print series)

let fig7 () =
  Report.section
    "Figure 7: software tcache miss rate vs size (miss rate = blocks \
     translated / instructions executed)";
  over_registry ~entries:Workloads.Registry.table1 (fun e img ->
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "%s (software)" e.name)
          ~xlabel:"tcache KB" ~ylabel:"miss %"
      in
      List.iter
        (fun bytes ->
          let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:bytes () in
          match Softcache.Runner.cached cfg img with
          | cached, ctrl ->
            Report.Series.add series
              (float_of_int bytes /. 1024.)
              (100.
              *. Softcache.Stats.miss_rate ctrl.stats ~retired:cached.retired)
          | exception Softcache.Controller.Chunk_too_large _ -> ())
        sweep_sizes;
      Report.Series.print series)

(* ------------------------------------------------------------------ *)
(* Full associativity: the softcache's architectural argument *)

let associativity () =
  Report.section
    "Full associativity (\"the instruction cache is effectively fully \
     associative ... a module can be guaranteed free of conflict misses \
     provided the module fits\"): two hot procedures placed exactly one \
     cache-size apart, so they alias in a direct-mapped cache";
  let cache_size = 4096 in
  (* two ~64-instruction hot loops separated by cold padding so their
     addresses conflict in a direct-mapped cache of [cache_size] *)
  let img =
    let b = Isa.Builder.create "alias" in
    let r = Workloads.Gen.rng 0xA11A5 in
    let reg = Isa.Reg.r in
    let fa = Isa.Builder.new_label b in
    let fb = Isa.Builder.new_label b in
    let main = Isa.Builder.new_label b in
    Isa.Builder.entry b main;
    let hot name l =
      Isa.Builder.func b name l (fun () ->
          for k = 1 to 60 do
            Isa.Builder.ins b
              (Isa.Instr.Alui (Add, reg 2, reg 2, k land 7))
          done;
          Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra))
    in
    hot "mode_a" fa;
    Workloads.Gen.pad_cold_to b r ~prefix:"pad" ~target_bytes:(cache_size - 300);
    (* align mode_b to exactly one cache size after mode_a so both map
       to the same direct-mapped sets *)
    while Isa.Builder.code_size_bytes b < cache_size do
      Isa.Builder.ins b Isa.Instr.Nop
    done;
    hot "mode_b" fb;
    Isa.Builder.func b "main" main (fun () ->
        Isa.Builder.li b (reg 16) 4000;
        let loop = Isa.Builder.label b in
        Isa.Builder.jal b fa;
        Isa.Builder.jal b fb;
        Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 16, reg 16, -1));
        Isa.Builder.br b Ne (reg 16) Isa.Reg.zero loop;
        Isa.Builder.ins b (Isa.Instr.Out (reg 2));
        Isa.Builder.ins b Isa.Instr.Halt);
    Isa.Builder.build b
  in
  let dm = Hwcache.create ~assoc:1 ~size_bytes:cache_size () in
  let fa_c = Hwcache.create ~assoc:0 ~size_bytes:cache_size () in
  let cpu = Machine.Cpu.of_image img in
  cpu.on_fetch <-
    Some
      (fun a ->
        ignore (Hwcache.access dm a);
        ignore (Hwcache.access fa_c a));
  let _ = Machine.Cpu.run cpu in
  let sw, swslow =
    let native = Softcache.Runner.native img in
    let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:cache_size () in
    let cached, ctrl = Softcache.Runner.cached cfg img in
    ( Softcache.Stats.miss_rate ctrl.stats ~retired:cached.retired,
      Softcache.Runner.slowdown ~native ~cached )
  in
  let pct x = Printf.sprintf "%.3f%%" (100. *. x) in
  Report.kv "HW direct-mapped miss rate"
    (pct (Hwcache.miss_rate dm) ^ "  (the two modes evict each other)");
  Report.kv "HW fully associative" (pct (Hwcache.miss_rate fa_c));
  Report.kv "softcache miss rate"
    (Printf.sprintf "%s  (slowdown %.3f; both modes coexist regardless of \
                     their addresses)"
       (pct sw) swslow)

(* ------------------------------------------------------------------ *)
(* Figure 8: paging vs CC memory size over time *)

let fig8 () =
  Report.section
    "Figure 8: evictions over time vs CC memory (adpcm encode, procedure \
     chunks; paper: 800B pages in steady state, 900B only at start + end \
     blip, 1KB less still)";
  let img = Workloads.Adpcm.encode_image () in
  List.iter
    (fun bytes ->
      let cfg =
        Softcache.Config.make ~tcache_bytes:bytes
          ~chunking:Softcache.Config.Procedure ()
      in
      let cached, ctrl = Softcache.Runner.cached cfg img in
      let total_cycles = max 1 cached.cycles in
      let buckets = 10 in
      let counts = Array.make buckets 0 in
      List.iter
        (fun (cycle, n) ->
          let i = min (buckets - 1) (cycle * buckets / total_cycles) in
          counts.(i) <- counts.(i) + n)
        (Softcache.Stats.eviction_series ctrl.stats);
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "CC memory = %d B" bytes)
          ~xlabel:"run decile" ~ylabel:"evictions"
      in
      Array.iteri
        (fun i n -> Report.Series.add series (float_of_int (i + 1)) (float_of_int n))
        counts;
      Report.Series.print series)
    [ 800; 900; 1024 ]

(* ------------------------------------------------------------------ *)
(* Figure 9: normalised dynamic footprint of the hot code *)

let fig9 () =
  Report.section
    "Figure 9: hot code (90% of samples) / application text (paper: 0.09, \
     0.07, 0.09, 0.13 — a 7-14x reduction)";
  let paper =
    [ ("adpcm_encode", 0.09); ("adpcm_decode", 0.07); ("gzip", 0.09);
      ("cjpeg", 0.13) ]
  in
  let t =
    Report.Table.create ~title:"normalised dynamic footprint"
      ~columns:[ "app"; "hot code"; "app text"; "measured"; "paper" ]
  in
  over_registry ~entries:Workloads.Registry.fig9 (fun e img ->
      let prof, _ = Profiler.profile img in
      let hot = Profiler.hot_bytes prof in
      let app =
        List.fold_left
          (fun a (s : Isa.Image.symbol) ->
            let libc =
              String.length s.sym_name >= 5
              && String.sub s.sym_name 0 5 = "libc_"
            in
            if libc then a else a + s.sym_size)
          0 img.symbols
      in
      Report.Table.add t
        [ Str e.name; Bytes hot; Bytes app;
          Float (3, float_of_int hot /. float_of_int app);
          Float (3, List.assoc e.name paper) ]);
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Hardware tag overhead: the "11-18% extra" claim *)

let tagoverhead () =
  Report.section
    "Hardware tag-array overhead (paper: \"tags for 32-bit addresses would \
     add an extra 11-18%\", direct-mapped 16B blocks)";
  let t =
    Report.Table.create ~title:"tag overhead"
      ~columns:[ "cache size"; "tag+valid bits/block"; "overhead" ]
  in
  List.iter
    (fun size ->
      let c = Hwcache.create ~size_bytes:size () in
      let ov = Hwcache.tag_overhead c in
      Report.Table.add t
        [ Bytes size; Int (int_of_float (ov *. 128.));
          Str (Printf.sprintf "%.1f%%" (100. *. ov)) ])
    [ 1024; 4096; 16384; 65536; 262144 ];
  Report.Table.print t;
  Report.kv "softcache equivalent"
    "no tag array; metadata reported per run via Controller.metadata_bytes"

(* ------------------------------------------------------------------ *)
(* Space overhead: softcache metadata vs the hardware tag array *)

let spaceoverhead () =
  Report.section
    "Space overhead (abstract: \"a comparable hardware cache would have      space overhead of 12-18% for its tag array\"; the softcache's      overheads are \"an adjustable tradeoff\")";
  let img = Workloads.Compress.image () in
  let t =
    Report.Table.create ~title:"softcache space overheads (compress95)"
      ~columns:
        [ "tcache"; "code expansion"; "map+stub metadata"; "total";
          "hw tag array" ]
  in
  List.iter
    (fun size ->
      let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:size () in
      let _, ctrl = Softcache.Runner.cached cfg img in
      let s = ctrl.stats in
      let expansion =
        float_of_int s.overhead_words /. float_of_int s.translated_words
      in
      let metadata =
        float_of_int (Softcache.Controller.metadata_bytes ctrl)
        /. float_of_int size
      in
      let hw = Hwcache.tag_overhead (Hwcache.create ~size_bytes:size ()) in
      let pct x = Printf.sprintf "%.1f%%" (100. *. x) in
      Report.Table.add t
        [ Bytes size; Str (pct expansion); Str (pct metadata);
          Str (pct (expansion +. metadata)); Str (pct hw) ])
    [ 4096; 8192; 16384; 32768 ];
  Report.Table.print t;
  Report.kv "note"
    "code expansion = pads/islands/fall slots per translated word;      metadata = tcache map + stub table relative to tcache size"

(* ------------------------------------------------------------------ *)
(* Network overhead: the 60-bytes-per-chunk measurement *)

let netcost () =
  Report.section
    "Network overhead per chunk (paper: \"60 application bytes ... exchanged \
     between CC and MC\" per downloaded chunk)";
  let img = Workloads.Adpcm.encode_image () in
  let net = Netmodel.ethernet_10mbps () in
  let cfg =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Procedure ~net ()
  in
  let _, ctrl = Softcache.Runner.cached cfg img in
  let msgs = Netmodel.messages net in
  Report.kv "chunks downloaded" (string_of_int msgs);
  Report.kv "application payload" (Report.fmt_bytes (Netmodel.payload_bytes net));
  Report.kv "protocol overhead"
    (Printf.sprintf "%d B (= %d B/chunk)"
       (msgs * Netmodel.overhead_bytes_per_message net)
       (Netmodel.overhead_bytes_per_message net));
  Report.kv "total on the wire" (Report.fmt_bytes (Netmodel.total_bytes net));
  ignore ctrl

(* ------------------------------------------------------------------ *)
(* Section 3 / Figure 10: the software data cache *)

let dcache () =
  Report.section
    "Section 3 design: software D-cache (stack cache + fully associative \
     predicted dcache; Figure 10 access sequences)";
  let cfg = Dcache.Config.make () in
  Report.kv "specialised constant access"
    (Printf.sprintf "%d cycles (rewritten direct load)"
       Dcache.Config.const_cycles);
  Report.kv "predicted hit"
    (Printf.sprintf "%d cycles (Fig. 10 check sequence)"
       Dcache.Config.predicted_hit_cycles);
  Report.kv "guaranteed (slow hit)"
    (Printf.sprintf "%d cycles (binary search of the sorted dcache)"
       (Dcache.Sim.guaranteed_latency_cycles cfg));
  let t =
    Report.Table.create ~title:"per-workload behaviour"
      ~columns:
        [ "app"; "prediction"; "const"; "fast"; "slow"; "miss";
          "tag checks avoided"; "overhead"; "hw D$ miss" ]
  in
  over_registry
    ~entries:
      [ List.nth Workloads.Registry.all 0 (* compress *);
        List.nth Workloads.Registry.all 3 (* hextobdd *);
        List.nth Workloads.Registry.all 5 (* gzip *) ]
    (fun e img ->
      (* hardware data-cache baseline on the same access stream *)
      let hw = Hwcache.create ~assoc:2 ~block_bytes:32 ~size_bytes:8192 () in
      let native_cycles =
        let cpu = Machine.Cpu.of_image img in
        let feed a = ignore (Hwcache.access hw a) in
        cpu.on_load <- Some feed;
        cpu.on_store <- Some feed;
        ignore (Machine.Cpu.run cpu);
        cpu.cycles
      in
      List.iter
        (fun (pname, pred) ->
          let cfg = Dcache.Config.make ~prediction:pred () in
          let outcome, cpu, st = Dcache.Sim.run cfg img in
          assert (outcome = Machine.Cpu.Halted);
          let pct n =
            if st.data_accesses = 0 then "-"
            else
              Printf.sprintf "%.1f%%"
                (100. *. float_of_int n /. float_of_int st.data_accesses)
          in
          Report.Table.add_row t
            [
              e.name;
              pname;
              pct st.const_hits;
              pct (st.fast_hits + st.second_chance_hits);
              pct st.slow_hits;
              pct st.misses;
              Printf.sprintf "%.1f%%" (100. *. Dcache.Sim.tag_checks_avoided st);
              Printf.sprintf "+%.1f%%"
                (100.
                *. float_of_int (cpu.cycles - native_cycles)
                /. float_of_int native_cycles);
              Printf.sprintf "%.2f%%" (100. *. Hwcache.miss_rate hw);
            ])
        [ ("same-idx", Dcache.Config.Same_index);
          ("2nd-chance", Dcache.Config.Second_chance) ]);
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Section 4: power *)

let power () =
  Report.section
    "Section 4: power (StrongARM: I$ 27% + D$ 16% + WB 2% = 45% of chip \
     power; bank power-down over deduced working sets)";
  let banks = Powermodel.Banks.make ~bank_bytes:4096 ~banks:8 () in
  let t =
    Report.Table.create ~title:"bank power-down (32KB in 8 x 4KB banks)"
      ~columns:[ "app"; "working set"; "active banks"; "chip power saved" ]
  in
  over_registry ~entries:Workloads.Registry.all (fun e img ->
      let prof, _ = Profiler.profile img in
      let ws = Profiler.hot_bytes prof * 5 / 4 in
      Report.Table.add t
        [ Str e.name; Bytes ws;
          Int (Powermodel.Banks.active_banks banks ~working_set:ws);
          Str
            (Printf.sprintf "%.1f%%"
               (100. *. Powermodel.Banks.chip_saving banks ~working_set:ws)) ]);
  Report.Table.print t;
  (* net memory-energy effect of dropping the tag array *)
  let img = Workloads.Compress.image () in
  let native = Softcache.Runner.native img in
  let cached, _ =
    Softcache.Runner.cached (Softcache.Config.sparc_prototype ()) img
  in
  let overhead = cached.retired - native.retired in
  List.iter
    (fun size ->
      let te =
        Powermodel.Tag_energy.of_cache ~size_bytes:size ~block_bytes:16
          ~assoc:1
      in
      Report.kv
        (Printf.sprintf "tag energy saved (%s I-cache)" (Report.fmt_bytes size))
        (Printf.sprintf "%.1f%%"
           (100.
           *. Powermodel.Tag_energy.sw_saving te ~accesses:native.retired
                ~overhead_instrs:overhead)))
    [ 8192; 32768 ]

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices the two prototypes differ on *)

let ablation () =
  Report.section
    "Ablation: chunk granularity x eviction policy (4KB tcache, forcing \
     paging)";
  let t =
    Report.Table.create ~title:"chunking x eviction"
      ~columns:
        [ "app"; "config"; "slowdown"; "translations"; "evicted"; "flushes";
          "net bytes" ]
  in
  over_registry
    ~entries:Workloads.Registry.[ List.hd all; List.nth all 3 ]
    (fun e img ->
      let native = Softcache.Runner.native img in
      List.iter
        (fun (cname, chunking, eviction) ->
          let net = Netmodel.create ~overhead_bytes:60 () in
          let cfg =
            Softcache.Config.make ~tcache_bytes:4096 ~chunking ~eviction ~net
              ()
          in
          match Softcache.Runner.cached cfg img with
          | cached, ctrl ->
            assert (cached.outputs = native.outputs);
            Report.Table.add t
              [ Str e.name; Str cname;
                Float (3, Softcache.Runner.slowdown ~native ~cached);
                Int ctrl.stats.translations; Int ctrl.stats.evicted_blocks;
                Int ctrl.stats.flushes; Bytes (Netmodel.total_bytes net) ]
          | exception Softcache.Controller.Chunk_too_large _ ->
            Report.Table.add_row t
              [ e.name; cname; "chunk too large"; "-"; "-"; "-"; "-" ])
        [
          ("bb/fifo", Softcache.Config.Basic_block, Softcache.Config.Fifo);
          ("bb/flush", Softcache.Config.Basic_block, Softcache.Config.Flush_all);
          ("proc/fifo", Softcache.Config.Procedure, Softcache.Config.Fifo);
          ("proc/flush", Softcache.Config.Procedure, Softcache.Config.Flush_all);
        ]);
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* The complete Section 3 memory system: tcache + scache + dcache *)

let fullsystem () =
  Report.section
    "Full system (Section 3.1): local memory statically divided into      tcache + scache + dcache — instruction and data caching together";
  let t =
    Report.Table.create ~title:"whole-hierarchy overhead"
      ~columns:
        [ "app"; "local memory"; "I-only slowdown"; "I+D slowdown";
          "D tag checks avoided" ]
  in
  over_registry
    ~entries:
      [ List.hd Workloads.Registry.all (* compress *);
        List.nth Workloads.Registry.all 1 (* adpcm enc *);
        List.nth Workloads.Registry.all 7 (* sensor *) ]
    (fun e img ->
      let native = Softcache.Runner.native img in
      let icfg = Softcache.Config.make ~tcache_bytes:(16 * 1024) () in
      let dcfg = Dcache.Config.make () in
      let icached, _ = Softcache.Runner.cached icfg img in
      let full, _ = Dcache.Fullsystem.run icfg dcfg img in
      assert (full.outputs = native.outputs);
      Report.Table.add t
        [ Str e.name; Bytes (Dcache.Fullsystem.local_memory_bytes icfg dcfg);
          Float (3, Softcache.Runner.slowdown ~native ~cached:icached);
          Float (3, float_of_int full.cycles /. float_of_int native.cycles);
          Str
            (Printf.sprintf "%.1f%%"
               (100. *. Dcache.Sim.tag_checks_avoided full.dcache_stats)) ]);
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Network latency sweep: when is remote paging viable? *)

let netsweep () =
  Report.section
    "Network latency sweep (adpcm encode, procedure chunks): remote paging      is viable when the working set fits; thrashing multiplies every RTT";
  let img = Workloads.Adpcm.encode_image () in
  let native = Softcache.Runner.native img in
  let t =
    Report.Table.create ~title:"slowdown vs round-trip latency"
      ~columns:[ "RTT (cycles)"; "1KB CC (fits)"; "800B CC (pages)" ]
  in
  List.iter
    (fun rtt ->
      let run bytes =
        let net =
          Netmodel.create ~latency_cycles:rtt ~cycles_per_byte:160
            ~overhead_bytes:60 ()
        in
        let cfg =
          Softcache.Config.make ~tcache_bytes:bytes
            ~chunking:Softcache.Config.Procedure ~net ()
        in
        let cached, _ = Softcache.Runner.cached cfg img in
        assert (cached.outputs = native.outputs);
        Softcache.Runner.slowdown ~native ~cached
      in
      Report.Table.add t [ Int rtt; Float (3, run 1024); Float (3, run 800) ])
    [ 0; 1_000; 10_000; 100_000; 1_000_000 ];
  Report.Table.print t

let faultsweep () =
  Report.section
    "Fault sweep (adpcm encode, procedure chunks, 10 Mbps ethernet): how \
     much does a lossy interconnect cost, and when does paging collapse";
  let img = Workloads.Adpcm.encode_image () in
  let native = Softcache.Runner.native img in
  let t =
    Report.Table.create
      ~title:"recovery under injected faults (seed 42, CRC32 + retry/backoff)"
      ~columns:
        [ "drop"; "corrupt"; "status"; "slowdown"; "retries"; "timeouts";
          "crc-fail"; "recovered" ]
  in
  List.iter
    (fun (drop, corrupt) ->
      let faults = Netmodel.Faults.make ~seed:42 ~drop ~corrupt () in
      let net = Netmodel.ethernet_10mbps ~faults () in
      let cfg =
        Softcache.Config.make ~tcache_bytes:1024
          ~chunking:Softcache.Config.Procedure ~net ()
      in
      let cached, ctrl = Softcache.Runner.cached_robust cfg img in
      let status =
        match cached.Softcache.Runner.status with
        | Softcache.Runner.Finished Machine.Cpu.Halted ->
          if cached.outputs = native.outputs then "ok" else "MISMATCH"
        | Softcache.Runner.Finished Machine.Cpu.Out_of_fuel -> "fuel"
        | Softcache.Runner.Unavailable _ -> "unavailable"
      in
      Report.Table.add t
        [ Float (2, drop); Float (2, corrupt); Str status;
          Float (3, float_of_int cached.cycles /. float_of_int native.cycles);
          Int ctrl.stats.net_retries; Int ctrl.stats.net_timeouts;
          Int ctrl.stats.crc_failures; Int ctrl.stats.recoveries ])
    [
      (0.0, 0.0); (0.01, 0.0); (0.05, 0.0); (0.2, 0.0); (0.0, 0.01);
      (0.0, 0.05); (0.0, 0.2); (0.1, 0.1); (0.3, 0.3); (0.6, 0.6);
    ];
  Report.Table.print t;
  Report.kv "note"
    "every surviving run is output-equivalent to native; 'unavailable' \
     means the retry budget was exhausted and the run stopped cleanly"

(* ------------------------------------------------------------------ *)
(* Prefetch/batching sweep: link bandwidth x prefetch degree
   sensitivity, plus the CI gate — on 10 Mbps ethernet, degree-2
   profile-guided prefetch must beat prefetch-off on both message count
   and total cycles for every registry workload, with the on/off
   lockstep confirming prefetching is architecturally invisible. *)

let prefetchsweep =
  let tcache = 48 * 1024 in
  let ranker_of img =
    let prof, _ = Profiler.profile img in
    Some (fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
  in
  let run ~ranker ~cycles_per_byte ~degree img =
    let net =
      Netmodel.create ~latency_cycles:100_000 ~cycles_per_byte
        ~overhead_bytes:60 ()
    in
    let cfg =
      Softcache.Config.make ~tcache_bytes:tcache ~net ~prefetch_degree:degree
        ()
    in
    let prepare (ctrl : Softcache.Controller.t) =
      ctrl.prefetch_ranker <- ranker
    in
    let cached, ctrl = Softcache.Runner.cached_robust ~prepare cfg img in
    (cached, ctrl, net)
  in
  let grid () =
    (* bandwidth x degree sensitivity on one paging-heavy workload *)
    let img = Workloads.Adpcm.encode_image () in
    let ranker = ranker_of img in
    let st =
      Report.Table.create
        ~title:"adpcm encode: cycles/messages per link x degree"
        ~columns:
          [ "link"; "cycles_per_byte"; "degree"; "cycles"; "messages";
            "wire_bytes"; "prefetch_issued"; "prefetch_installs";
            "prefetch_wasted" ]
    in
    List.iter
      (fun (lname, cpb) ->
        List.iter
          (fun d ->
            let cached, ctrl, net =
              run ~ranker ~cycles_per_byte:cpb ~degree:d img
            in
            let s = ctrl.Softcache.Controller.stats in
            Report.Table.add st
              [ Str lname; Int cpb; Int d; Int cached.cycles;
                Int (Netmodel.messages net); Int (Netmodel.total_bytes net);
                Int s.prefetch_issued; Int s.prefetch_installs;
                Int s.prefetch_wasted ])
          [ 0; 1; 2; 4; 8 ])
      [ ("1 Mbps", 1600); ("10 Mbps", 160); ("100 Mbps", 16) ];
    (* the gate: every registry workload, ethernet, degree 2 vs 0 *)
    let gt =
      Report.Table.create
        ~title:"gate: 10 Mbps ethernet, degree 2 vs prefetch off"
        ~columns:
          [ "name"; "cycles_off"; "cycles_on"; "cycle_ratio"; "messages_off";
            "messages_on"; "lockstep_ok"; "lockstep" ]
    in
    over_registry (fun e img ->
        let native = Softcache.Runner.native img in
        let ranker = ranker_of img in
        let off, _, net_off = run ~ranker ~cycles_per_byte:160 ~degree:0 img in
        let on, _, net_on = run ~ranker ~cycles_per_byte:160 ~degree:2 img in
        if off.outputs <> native.outputs || on.outputs <> native.outputs then
          fail "%s: outputs diverge from native" e.name;
        let mk_cfg () =
          Softcache.Config.make ~tcache_bytes:tcache
            ~net:(Netmodel.ethernet_10mbps ()) ~prefetch_degree:2 ()
        in
        Report.Table.add gt
          ([ Report.Table.Str e.name; Int off.cycles; Int on.cycles;
             Float (4, float_of_int on.cycles /. float_of_int off.cycles);
             Int (Netmodel.messages net_off); Int (Netmodel.messages net_on) ]
          @ verdict_cells e.name
              (Check.Lockstep.pair ~fuel:150_000 ~audit:true Prefetch mk_cfg
                 img)));
    [ ("sweep", st); ("workloads", gt) ]
  in
  let gates rows =
    ( [ ("tcache_bytes", Report.Table.Int tcache) ],
      List.concat_map
        (fun r ->
          let name = str_at r "name" and n = int_at r in
          let m_off = n "messages_off" and m_on = n "messages_on" in
          let c_off = n "cycles_off" and c_on = n "cycles_on" in
          expect (m_on < m_off)
            "%s: prefetch does not reduce messages (%d -> %d)" name m_off m_on
          @ expect (c_on < c_off) "%s: prefetch regresses cycles (%d -> %d)"
              name c_off c_on)
        (rows "workloads") )
  in
  { name = "prefetchsweep"; file = "BENCH_prefetch.json"; grid; gates;
    title =
      "Prefetch sweep: batched profile-guided chunk prefetch on the MC-CC \
       link (bandwidth x degree sensitivity; gate: on 10 Mbps ethernet \
       degree 2 must beat degree 0 for every workload)" }

(* ------------------------------------------------------------------ *)
(* Decoded vs interpretive dispatch: host wall time of the two CPU
   engines over the full workload registry, gated on the geomean
   speedup. *)

let micro_engines =
  let grid () =
    let t =
      Report.Table.create ~title:"native run, per engine"
        ~columns:[ "name"; "interpretive_s"; "decoded_s"; "speedup" ]
    in
    over_registry (fun e img ->
        let mk engine () =
          Machine.Cpu.of_image ~engine ~mem_bytes:(2 * 1024 * 1024) img
        in
        let ti = best_of (mk Machine.Cpu.Interpretive) Machine.Cpu.run in
        let td = best_of (mk Machine.Cpu.Decoded) Machine.Cpu.run in
        Report.Table.add t
          [ Str e.name; Float (6, ti); Float (6, td); Float (4, ti /. td) ]);
    [ ("workloads", t) ]
  in
  let gates rows =
    let speedup r =
      match List.assoc "speedup" r with Report.Table.Float (_, x) -> x | _ -> 0.
    in
    let gm = Report.geomean (List.map speedup (rows "workloads")) in
    ( [ ("geomean_speedup", Report.Table.Float (4, gm)) ],
      expect (gm > 1.0) "decoded dispatch is not faster than interpretive" )
  in
  { name = "micro_engines"; file = "BENCH_micro.json"; grid; gates;
    title =
      "Dispatch engines (host wall time): predecoded fetch vs per-fetch \
       interpretive decode" }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator's hot paths *)

let micro () =
  Report.section "Micro-benchmarks (host wall time of simulator hot paths)";
  let open Bechamel in
  let sum_img =
    let b = Isa.Builder.create "bench_loop" in
    let r1 = Isa.Reg.r 1 and r2 = Isa.Reg.r 2 in
    Isa.Builder.li b r1 1000;
    Isa.Builder.li b r2 0;
    let top = Isa.Builder.label b in
    Isa.Builder.ins b (Isa.Instr.Alu (Add, r2, r2, r1));
    Isa.Builder.ins b (Isa.Instr.Alui (Add, r1, r1, -1));
    Isa.Builder.br b Ne r1 Isa.Reg.zero top;
    Isa.Builder.ins b Isa.Instr.Halt;
    Isa.Builder.build b
  in
  (* the loop writes no memory, so one loaded image (and its warm
     predecode cache) serves every run: only dispatch is timed *)
  let sum_mem = (Machine.Cpu.of_image ~mem_bytes:(2 lsl 20) sum_img).mem in
  let word =
    Isa.Encode.encode (Isa.Instr.Alui (Add, Isa.Reg.r 1, Isa.Reg.r 2, 42))
  in
  let hw = Hwcache.create ~size_bytes:8192 () in
  let assoc = Dcache.Assoc.create ~blocks:256 in
  for i = 0 to 255 do
    ignore (Dcache.Assoc.insert assoc ~tag:(i * 7))
  done;
  let counter = ref 0 in
  let tests =
    Test.make_grouped ~name:"softcache"
      [
        Test.make ~name:"encode+decode instruction"
          (Staged.stage (fun () -> Isa.Encode.decode word));
        Test.make ~name:"interpret 3k-instr loop"
          (Staged.stage (fun () ->
               Machine.Cpu.run
                 (Machine.Cpu.create ~mem:sum_mem ~pc:sum_img.entry ())));
        Test.make ~name:"hwcache access"
          (Staged.stage (fun () ->
               incr counter;
               Hwcache.access hw (!counter * 16 land 0xFFFF)));
        Test.make ~name:"dcache assoc lookup"
          (Staged.stage (fun () ->
               incr counter;
               Dcache.Assoc.lookup assoc ~pred:0 ~tag:(!counter mod 256 * 7)));
        Test.make ~name:"create controller + translate entry"
          (Staged.stage (fun () ->
               let ctrl =
                 Softcache.Controller.create
                   (Softcache.Config.make ~tcache_bytes:2048 ())
                   sum_img
               in
               Softcache.Controller.start ctrl));
      ]
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.25) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (List.hd instances) raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  List.iter
    (fun (name, res) ->
      match Analyze.OLS.estimates res with
      | Some [ ns ] -> Report.kv name (Printf.sprintf "%.1f ns/run" ns)
      | Some _ | None -> Report.kv name "n/a")
    (List.sort compare rows);
  run_sweep ~tally:false micro_engines ()

(* ------------------------------------------------------------------ *)
(* Traced smoke run: the CI gate for the tracing subsystem. Every
   registry workload runs once with a tracer attached; the JSONL
   rendering is validated line by line against the event schema, the
   Chrome rendering as well-formed JSON with nondecreasing timestamps
   and matched async residency spans, the attribution ledger must
   conserve exactly against the cycle counter, and the trace-on/off
   lockstep confirms tracing is architecturally invisible. Exports
   BENCH_trace.jsonl and BENCH_trace_chrome.json and re-validates them
   from disk. *)

let tracesmoke () =
  Report.section
    "Trace smoke: traced runs validated per exporter (gate: schema-valid \
     exports, exact cycle attribution, zero perturbation)";
  let mk_cfg () =
    Softcache.Config.make ~tcache_bytes:(2 * 1024)
      ~net:(Netmodel.ethernet_10mbps ()) ()
  in
  let t =
    Report.Table.create ~title:"traced runs (2 KB tcache, 10 Mbps ethernet)"
      ~columns:
        [ "app"; "cycles"; "events"; "dropped"; "jsonl"; "chrome";
          "lockstep_ok"; "lockstep" ]
  in
  let artifact = ref None in
  let valid what unit = function
    | Ok n -> Printf.sprintf "ok (%d %s)" n unit
    | Error err ->
      fail "%s: %s" what err;
      "FAIL"
  in
  over_registry (fun e img ->
      let ctrl = Softcache.Controller.create (mk_cfg ()) img in
      let tr = Trace.create () in
      Softcache.Controller.attach_tracer ctrl tr;
      let outcome = Softcache.Controller.run ctrl in
      if outcome <> Machine.Cpu.Halted then fail "%s: did not halt" e.name;
      if !artifact = None then artifact := Some tr;
      if not (Trace.conserved tr ~total:ctrl.cpu.cycles) then
        fail "%s: attribution does not conserve (sum %d vs %d)" e.name
          (Trace.summary tr).Trace.s_total ctrl.cpu.cycles;
      Report.Table.add t
        ([ Report.Table.Str e.name; Int ctrl.cpu.cycles; Int (Trace.emitted tr);
           Int (Trace.dropped tr);
           Str (valid (e.name ^ " jsonl") "lines"
                  (Trace.Schema.validate_jsonl (Trace.to_jsonl tr)));
           Str (valid (e.name ^ " chrome") "events"
                  (Trace.Schema.validate_chrome (Trace.to_chrome tr))) ]
        @ verdict_cells e.name
            (Check.Lockstep.pair ~fuel:150_000 Trace mk_cfg img)));
  Report.Table.print t;
  (* artifacts: export the first workload's trace in both formats and
     validate what actually landed on disk *)
  match !artifact with
  | None -> fail "no trace to export"
  | Some tr ->
    List.iter
      (fun (file, format, validate, unit) ->
        Trace.export tr ~format file;
        let on_disk = In_channel.with_open_text file In_channel.input_all in
        ignore (valid file unit (validate on_disk)))
      [ ("BENCH_trace.jsonl", `Jsonl, Trace.Schema.validate_jsonl, "lines");
        ( "BENCH_trace_chrome.json", `Chrome, Trace.Schema.validate_chrome,
          "events" ) ];
    Report.kv "written" "BENCH_trace.jsonl, BENCH_trace_chrome.json"

(* ------------------------------------------------------------------ *)
(* Replacement-policy sweep: policy x tcache size over the paging
   workloads, plus the CI gate — at sub-working-set sizes a recency
   policy must never translate more than the FIFO sweep it defers to,
   and the whole policy registry must be architecturally equivalent
   (Check.Lockstep.modes over Config.eviction_table).

   The numbers to expect are modest by design: block entries are only
   observable at trap granularity (patched direct branches bypass the
   controller entirely), so LRU/RRIP deviate from the sweep only when
   it is about to kill a block with recent observed reuse. Few
   deviations, but each one saves re-translations — and never costs
   any, which is what the gate checks. *)

let policysweep =
  let sizes = [ 2048; 4096; 8192 ] in
  let gate_workloads = [ "compress95"; "mpeg2enc" ] in
  let grid () =
    let t =
      Report.Table.create ~title:"policy x tcache size"
        ~columns:
          [ "name"; "tcache_bytes"; "policy"; "cycles"; "translations";
            "evicted"; "outputs_ok" ]
    in
    List.iter
      (fun name ->
        let img = image_of name in
        let native = Softcache.Runner.native img in
        (* one profiling pre-run per workload: the trrip rows attach
           its temperature classifier, every other policy ignores it *)
        let prof, _ = Profiler.profile img in
        let oracle = Profiler.temperature_classifier prof in
        (* the sizing estimate decides where the prior pays: primed
           only in deep thrash, unprimed (= plain rrip) around and
           above the knee *)
        let est =
          Softcache.Sizing.estimate ~image:img
            ~chunking:Softcache.Config.Basic_block
            ~samples_in:(fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
            ~sizes ()
        in
        List.iter
          (fun bytes ->
            List.iter
              (fun (pname, ev) ->
                let cfg =
                  Softcache.Config.make ~tcache_bytes:bytes ~eviction:ev ()
                in
                let prepare c =
                  if
                    ev = Softcache.Config.Trrip
                    && Softcache.Sizing.deep_thrash est ~tcache_bytes:bytes
                  then
                    Softcache.Controller.set_temperature_oracle c (Some oracle)
                in
                match Softcache.Runner.cached_robust ~prepare cfg img with
                | r, ctrl ->
                  Report.Table.add t
                    [ Str name; Bytes bytes; Str pname; Int r.cycles;
                      Int ctrl.stats.translations;
                      Int ctrl.stats.evicted_blocks;
                      Bool
                        (r.status = Softcache.Runner.Finished Machine.Cpu.Halted
                        && r.outputs = native.outputs) ]
                | exception Softcache.Controller.Chunk_too_large _ ->
                  (* flush-all cannot place this workload's largest
                     chunk at this size; that is a configuration
                     limit, not a gate failure *)
                  Report.kv "chunk too large"
                    (Printf.sprintf "%s/%s/%dB" name pname bytes))
              Softcache.Config.eviction_table)
          sizes)
      gate_workloads;
    [
      ("grid", t);
      (* full-registry architectural equivalence, every policy vs
         native and vs each other, with the invariant auditor attached *)
      lockstep_table ~strict:true "all policies vs native" (fun e img ->
          let mode (name, eviction) =
            ( name,
              fun () -> Softcache.Config.make ~tcache_bytes:8192 ~eviction () )
          in
          Check.Lockstep.modes ~fuel:8_000_000 ~audit:(e.name = "sensor_modes")
            (List.map mode Softcache.Config.eviction_table)
            img);
    ]
  in
  let gates rows =
    let grid = rows "grid" in
    let translations name bytes pname =
      lookup grid
        [ ("name", Str name); ("tcache_bytes", Bytes bytes);
          ("policy", Str pname) ]
        "translations"
    in
    let cells =
      List.concat_map (fun n -> List.map (fun b -> (n, b)) sizes) gate_workloads
    in
    (* [p] translates no more than [base] wherever both completed *)
    let at_most base (name, bytes) p =
      match (translations name bytes base, translations name bytes p) with
      | Some bt, Some pt ->
        expect (pt <= bt) "%s/%dB: %s translates more than %s (%d > %d)" name
          bytes p base pt bt
      | _ -> []
    in
    (* trrip rides a real profile on every gate cell, so the temperature
       prior must pay for itself: never more translations than plain
       rrip anywhere, strictly fewer on at least three cells *)
    let beats =
      List.filter_map
        (fun (name, bytes) ->
          match
            (translations name bytes "rrip", translations name bytes "trrip")
          with
          | Some rr, Some tr -> Some (tr < rr)
          | _ -> None)
        cells
    in
    let wins = List.length (List.filter Fun.id beats) in
    let profiled = List.length beats in
    ( [ ("trrip_cells", Report.Table.Int profiled); ("trrip_wins", Int wins) ],
      outputs_gate "policy" grid
      (* at sub-working-set sizes a recency policy must not translate
         more than fifo *)
      @ List.concat_map
          (fun c ->
            List.concat_map (at_most "fifo" c) [ "lru"; "rrip"; "trrip" ]
            @ at_most "rrip" c "trrip")
          cells
      @ expect (wins >= 3)
          "trrip strictly beat rrip on only %d of %d profiled cells (need >= 3)"
          wins profiled )
  in
  { name = "policysweep"; file = "BENCH_policy.json"; grid; gates;
    title =
      "Policy sweep: eviction policy x tcache size (gate: lru/rrip/trrip \
       translations <= fifo at sub-working-set sizes; profiled trrip <= rrip \
       everywhere and strictly better on >= 3 cells; full-registry lockstep \
       equivalence)" }

(* ------------------------------------------------------------------ *)
(* Analytic sizing: the dominant-block estimator against the measured
   Fig. 7 knee, plus the CI gate — the predicted knee must land within
   one ladder step of the measured knee on at least 6 of the 8 registry
   workloads. BENCH_sizing.json is committed as the baseline.

   The measured knee is read off the fifo translation curve: the
   smallest tcache size whose translation count sits within 2x of the
   count at the largest completing size — where the Fig. 7 curve has
   gone flat, capacity misses are gone and what remains is the cold
   footprint. *)

let sizing =
  let step_of bytes =
    Option.value ~default:(-1) (List.find_index (( = ) bytes) sweep_sizes)
  in
  let grid () =
    let t =
      Report.Table.create ~title:"predicted vs measured tcache knee"
        ~columns:
          [ "name"; "chunks_walked"; "dominant_chunks";
            "dominant_tcache_bytes"; "predicted_bytes"; "predicted_knee";
            "measured_knee"; "step_delta"; "ok" ]
    in
    over_registry (fun e img ->
        let prof, _ = Profiler.profile img in
        let est =
          Softcache.Sizing.estimate ~image:img
            ~chunking:Softcache.Config.Basic_block
            ~samples_in:(fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
            ~sizes:sweep_sizes ()
        in
        let native = Softcache.Runner.native img in
        let curve =
          List.filter_map
            (fun bytes ->
              let cfg =
                Softcache.Config.sparc_prototype ~tcache_bytes:bytes ()
              in
              match Softcache.Runner.cached cfg img with
              | cached, ctrl ->
                if cached.outputs <> native.outputs then
                  fail "%s/%dB: outputs diverge from native" e.name bytes;
                Some (bytes, ctrl.stats.translations)
              | exception Softcache.Controller.Chunk_too_large _ -> None)
            sweep_sizes
        in
        let measured =
          match List.rev curve with
          | [] -> None
          | (_, tail_tr) :: _ ->
            List.find_map
              (fun (bytes, tr) ->
                if tr <= 2 * tail_tr then Some bytes else None)
              curve
        in
        let delta =
          match (est.predicted_knee, measured) with
          | Some p, Some m -> Some (abs (step_of p - step_of m))
          | _ -> None
        in
        let bytes = Option.map (fun b -> Report.Table.Bytes b) in
        Report.Table.add t
          [ Str e.name; Int est.chunks_walked; Int est.dominant_chunks;
            Bytes est.dominant_tcache_bytes; Bytes est.predicted_bytes;
            Opt (bytes est.predicted_knee); Opt (bytes measured);
            Opt (Option.map (fun d -> Report.Table.Int d) delta);
            Bool (match delta with Some d -> d <= 1 | None -> false) ]);
    [ ("workloads", t) ]
  in
  let gates rows =
    let all = rows "workloads" in
    let hits = List.length (List.filter (fun r -> bool_at r "ok") all) in
    ( [ ("knee_hits", Report.Table.Int hits) ],
      expect (hits >= 6)
        "sizing knee within one step on only %d of %d workloads (need >= 6)"
        hits (List.length all) )
  in
  { name = "sizing"; file = "BENCH_sizing.json"; grid; gates;
    title =
      "Sizing: dominant-block analytic knee vs measured Fig. 7 knee (gate: \
       within one ladder step on >= 6 of 8 registry workloads)" }

(* ------------------------------------------------------------------ *)
(* Fleet sweep: one MC serving N CC clients over a shared link —
   clients x link bandwidth grid with a dedup-off twin per cell, plus
   the CI gates: shared-chunk dedup must cut aggregate wire bytes by
   at least 30% on the 4-client identical-workload fleet, every cell
   must pass Check.Audit.fleet, and a 1-client fleet must be
   cycle-identical to the plain single-client path for every registry
   workload (Check.Lockstep.pair Fleet). *)

let fleetsweep =
  let app = "compress95" in
  (* cycles/byte at 200 MHz: the ARM prototype's 10 Mbps link and a
     4x-slower variant where queueing and coalescing matter more *)
  let links = [ ("10mbps", 160); ("2.5mbps", 640) ] in
  let grid () =
    let img = image_of app in
    let cell (lname, cpb) clients dedup =
      let net =
        Netmodel.create ~latency_cycles:100_000 ~cycles_per_byte:cpb
          ~overhead_bytes:60 ()
      in
      let mk_cfg _ =
        Softcache.Config.make ~tcache_bytes:4096
          ~chunking:Softcache.Config.Basic_block ~net ()
      in
      let fl =
        Fleet.create ~config:(Fleet.config ~clients ~dedup ()) ~net mk_cfg
          [| img |]
      in
      Fleet.run ~fuel:2_000_000 fl;
      audit_gate
        (Printf.sprintf "fleet %s/%d clients/dedup=%b" app clients dedup)
        (Check.Audit.fleet fl);
      (lname, Fleet.summary_fields fl)
    in
    let cells =
      List.concat_map
        (fun link ->
          List.concat_map
            (fun clients -> List.map (cell link clients) [ true; false ])
            [ 1; 2; 4; 8 ])
        links
    in
    let t =
      Report.Table.create ~title:"fleet: clients x link (identical workloads)"
        ~columns:("name" :: "link" :: List.map fst (snd (List.hd cells)))
    in
    Report.Table.show t
      [ "name"; "link"; "clients"; "dedup"; "wire_bytes"; "frames";
        "coalesced"; "piggybacked"; "cache_hits"; "stall_p99" ];
    List.iter
      (fun (lname, fields) ->
        Report.Table.add t
          (Str app :: Str lname
          :: List.map (fun (_, v) -> Report.Table.Str v) fields))
      cells;
    [
      ("grid", t);
      (* 1-client fleet is cycle-identical to the plain path, for every
         registry workload, over a faulty ethernet link (drops and
         corruption exercise the retry machinery on both sides) *)
      lockstep_table "1-client fleet vs solo" (fun _ img ->
          let mk_cfg () =
            let faults =
              Netmodel.Faults.make ~seed:11 ~drop:0.02 ~corrupt:0.01 ()
            in
            Softcache.Config.make ~tcache_bytes:4096
              ~chunking:Softcache.Config.Basic_block
              ~net:(Netmodel.ethernet_10mbps ~faults ()) ()
          in
          Check.Lockstep.pair ~fuel:2_000_000 Fleet mk_cfg img);
    ]
  in
  (* dedup must cut aggregate wire bytes >= 30% at 4 clients on every
     link — N identical clients share almost every chunk, so coalesced
     joins should eliminate most redundant frames *)
  let gates rows =
    let wire lname dedup =
      lookup (rows "grid")
        [ ("link", Str lname); ("clients", Str "4");
          ("dedup", Str (string_of_bool dedup)) ]
        "wire_bytes"
    in
    ( [],
      List.concat_map
        (fun (lname, _) ->
          match (wire lname true, wire lname false) with
          | Some won, Some woff ->
            let cut =
              if woff = 0 then 0.0
              else float_of_int (woff - won) /. float_of_int woff
            in
            Report.kv
              (Printf.sprintf "dedup wire cut (%s, 4 clients)" lname)
              (Printf.sprintf "%.1f%% (%d -> %d bytes)" (100. *. cut) woff won);
            expect (cut >= 0.30)
              "%s/4 clients: dedup cut aggregate wire bytes only %.1f%%" lname
              (100.0 *. cut)
          | _ -> [ lname ^ ": missing 4-client dedup twin" ])
        links )
  in
  { name = "fleetsweep"; file = "BENCH_fleet.json"; grid; gates;
    title =
      "Fleet sweep: N clients x link bandwidth on one shared MC link (gate: \
       dedup cuts aggregate wire bytes >= 30% at 4 clients; fleet audits \
       clean; 1-client fleet cycle-identical registry-wide)" }

(* ------------------------------------------------------------------ *)
(* Shard sweep: harts x tcache size on one shared tcache. N hart
   contexts replay the workload under the seeded interleaving
   scheduler; concurrent misses for the same chunk coalesce onto the
   in-flight fill, so the shared tcache should need far fewer wire
   messages than N independent solo caches. Gates: the 1-hart sharded
   run is cycle-identical to the solo controller on every registry
   workload (Check.Lockstep.pair Shards); every grid cell passes the full
   shard audit (Check.Audit.shards); and 4-hart coalescing cuts wire
   messages vs 4 independent solo runs on >= half the registry. *)

let shardsweep =
  let grid () =
    let app = "compress95" in
    let img = image_of app in
    let t =
      Report.Table.create ~title:"shard: harts x tcache size"
        ~columns:
          [ "name"; "harts"; "tcache"; "makespan"; "total_cycles"; "fills";
            "coalesced"; "fill_wait"; "mc_wait"; "wire_messages" ]
    in
    List.iter
      (fun tcache ->
        List.iter
          (fun harts ->
            let net = Netmodel.ethernet_10mbps () in
            let cfg =
              Softcache.Config.make ~tcache_bytes:tcache
                ~chunking:Softcache.Config.Basic_block ~net ~harts
                ~shards:(if harts >= 4 then 2 else 1) ~sched_seed:7 ()
            in
            let ctrl = Softcache.Controller.create cfg img in
            let sh = Softcache.Shard.attach ctrl in
            ignore (Softcache.Shard.run ~fuel:800_000 sh);
            audit_gate
              (Printf.sprintf "shard %s/%d harts/%d B" app harts tcache)
              (Check.Audit.shards sh);
            let s = ctrl.stats in
            Report.Table.add t
              [ Str app; Int harts; Int tcache;
                Int (Softcache.Shard.makespan sh);
                Int (Softcache.Shard.total_cycles sh); Int s.fills;
                Int s.fills_coalesced; Int s.fill_wait_cycles;
                Int s.mc_wait_cycles; Int (Netmodel.messages net) ])
          [ 1; 2; 4; 8 ])
      [ 4096; 16384 ];
    (* a 4-hart shared tcache against 4 independent solo caches — the
       whole point of fill coalescing over shared code *)
    let n = 4 and fuel = 600_000 in
    let ct =
      Report.Table.create ~title:"coalescing: 4-hart shared vs 4x solo"
        ~columns:
          [ "name"; "shared_messages"; "solo_messages"; "cut_pct"; "win" ]
    in
    over_registry (fun e img ->
        let shard_net = Netmodel.ethernet_10mbps () in
        let cfg =
          Softcache.Config.make ~tcache_bytes:8192
            ~chunking:Softcache.Config.Basic_block ~net:shard_net ~harts:n
            ~sched_seed:5 ()
        in
        let sh = Softcache.Shard.attach (Softcache.Controller.create cfg img) in
        ignore (Softcache.Shard.run ~fuel sh);
        audit_gate
          (Printf.sprintf "shard %s/coalescing" e.name)
          (Check.Audit.shards sh);
        let shared = Netmodel.messages shard_net in
        (* the N solo runs are identical, so run one and scale *)
        let solo_net = Netmodel.ethernet_10mbps () in
        let solo_cfg =
          Softcache.Config.make ~tcache_bytes:8192
            ~chunking:Softcache.Config.Basic_block ~net:solo_net ()
        in
        ignore
          (Softcache.Controller.run ~fuel
             (Softcache.Controller.create solo_cfg img));
        let solo = n * Netmodel.messages solo_net in
        let cut = 100.0 *. float_of_int (solo - shared) /. float_of_int solo in
        Report.Table.add ct
          [ Str e.name; Int shared; Int solo;
            Opt (if solo = 0 then None else Some (Float (1, cut)));
            Bool (shared < solo) ]);
    [
      ("grid", t);
      ("coalescing", ct);
      (* the sharded engine with one hart is the solo controller, cycle
         for cycle, on every registry workload *)
      lockstep_table "1-hart sharded vs solo" (fun _ img ->
          let mk_cfg () =
            Softcache.Config.make ~tcache_bytes:4096
              ~chunking:Softcache.Config.Basic_block ()
          in
          Check.Lockstep.pair ~fuel:2_000_000 Shards mk_cfg img);
    ]
  in
  let gates rows =
    let all = rows "coalescing" in
    let wins = List.length (List.filter (fun r -> bool_at r "win") all) in
    let total = List.length all in
    Report.kv "coalescing wins" (Printf.sprintf "%d of %d" wins total);
    ( [],
      expect (2 * wins >= total)
        "4-hart coalescing beat 4x solo on only %d of %d workloads" wins total )
  in
  { name = "shardsweep"; file = "BENCH_shard.json"; grid; gates;
    title =
      "Shard sweep: harts x tcache size on one shared tcache (gates: 1-hart \
       sharded run cycle-identical to solo registry-wide; every cell audits \
       clean; 4-hart coalescing cuts wire messages vs 4 solo runs on >= \
       half the registry)" }

(* ------------------------------------------------------------------ *)
(* Granularity sweep: block vs whole-function caching units across a
   tcache-size ladder — the function-granularity pitch is fewer, larger
   MC round trips once the tcache can hold whole functions, at the cost
   of thrashing (and degradation) when it cannot. Gates: every cell is
   output-equivalent to native and audits clean (PLT section included);
   at the largest tcache, function mode must send strictly fewer wire
   messages than block mode on at least half the registry; and
   Check.Lockstep.modes over Config.granularity_table proves block/function
   observational equivalence registry-wide. *)

let gransweep =
  let sizes = [ 2048; 8192; 65536 ] in
  let large = List.fold_left max 0 sizes in
  let grid () =
    let t =
      Report.Table.create ~title:"granularity x tcache size"
        ~columns:
          [ "name"; "tcache_bytes"; "granularity"; "cycles"; "translations";
            "traps"; "messages"; "plt_slots"; "degraded"; "outputs_ok" ]
    in
    over_registry (fun e img ->
        let native = Softcache.Runner.native img in
        List.iter
          (fun bytes ->
            List.iter
              (fun (gname, g) ->
                let net = Netmodel.ethernet_10mbps () in
                let cfg =
                  Softcache.Config.make ~tcache_bytes:bytes ~net
                    ~chunking:Softcache.Config.Basic_block ~granularity:g ()
                in
                let r, ctrl = Softcache.Runner.cached_robust cfg img in
                audit_gate
                  (Printf.sprintf "%s/%s/%dB" e.name gname bytes)
                  (Check.Audit.run ctrl);
                Report.Table.add t
                  [ Str e.name; Bytes bytes; Str gname; Int r.cycles;
                    Int ctrl.stats.translations; Int ctrl.stats.traps;
                    Int (Netmodel.messages net); Int ctrl.stats.plt_slots;
                    Int ctrl.stats.gran_degraded;
                    Bool
                      (r.status = Softcache.Runner.Finished Machine.Cpu.Halted
                      && r.outputs = native.outputs) ])
              Softcache.Config.granularity_table)
          sizes);
    [
      ("grid", t);
      (* block and function granularity, each in data-access lockstep
         with native, then cross-compared — at a mid-ladder size where
         function mode both fits whole functions and occasionally
         degrades *)
      lockstep_table ~strict:true "granularities vs native" (fun e img ->
          let mode (name, granularity) =
            ( name,
              fun () ->
                Softcache.Config.make ~tcache_bytes:8192
                  ~chunking:Softcache.Config.Basic_block ~granularity () )
          in
          Check.Lockstep.modes ~fuel:12_000_000
            ~audit:(e.name = "sensor_modes")
            (List.map mode Softcache.Config.granularity_table)
            img);
    ]
  in
  (* whole-function units amortize the per-message overhead (frame
     header + latency) over more payload, so once the tcache stops
     thrashing, function mode should need fewer MC round trips for
     most workloads *)
  let gates rows =
    let grid = rows "grid" in
    let msgs name g =
      lookup grid
        [ ("name", Str name); ("tcache_bytes", Bytes large);
          ("granularity", Str (Softcache.Config.granularity_name g)) ]
        "messages"
    in
    let wins =
      List.filter_map
        (fun (e : Workloads.Registry.entry) ->
          match (msgs e.name Block, msgs e.name Function) with
          | Some bm, Some fm when fm < bm -> Some (Report.Table.Str e.name)
          | _ -> None)
        Workloads.Registry.all
    in
    let won = List.length wins and total = List.length Workloads.Registry.all in
    ( [ ("wire_message_wins", Report.Table.List wins);
        ("gate_tcache_bytes", Bytes large) ],
      outputs_gate "granularity" grid
      @ expect (2 * won >= total)
          "function granularity cut wire messages on only %d/%d workloads at \
           %d B"
          won total large )
  in
  { name = "gransweep"; file = "BENCH_gran.json"; grid; gates;
    title =
      "Granularity sweep: block vs whole-function caching units x tcache \
       size (gate: at the largest tcache, function mode cuts wire messages \
       on >= half the registry; every cell audits clean and matches native \
       outputs; registry-wide block/function lockstep)" }

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("associativity", associativity);
    ("fig8", fig8);
    ("fig9", fig9);
    ("tagoverhead", tagoverhead);
    ("spaceoverhead", spaceoverhead);
    ("netcost", netcost);
    ("dcache", dcache);
    ("power", power);
    ("ablation", ablation);
    ("fullsystem", fullsystem);
    ("netsweep", netsweep);
    ("faultsweep", faultsweep);
  ]
  @ List.map
      (fun s -> (s.name, run_sweep s))
      [ prefetchsweep; policysweep; sizing; fleetsweep; shardsweep; gransweep ]
  @ [
    ("tracesmoke", tracesmoke);
    ("micro", micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let failed = ref 0 in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        failures := 0;
        f ();
        failed := !failed + !failures
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1)
    requested;
  print_newline ();
  if !failed > 0 then exit 1
