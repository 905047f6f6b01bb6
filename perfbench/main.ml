(* SoftCache benchmark: host throughput and the paper's simulated
   metrics on two workloads, with a traced per-layer split.

     main.exe --workload solo|fleet_fn --seed N --seconds S --trace 0|1

   [solo] is the union of three smaller workloads, [fit], [thrash] and
   [audited], which can also be run alone.

   A workload is a list of cells; a cell is one cached run (or one
   fleet of clients) from empty caches, a cold start as in Fig. 5.
   Every cell's outputs are checked against a native reference run
   made during set-up, and every cell must halt without raising.

   --trace 0 measures the end-to-end metrics: passes over the cells,
   in a seeded order, until --seconds have elapsed. --trace 1
   alternates an untraced and a traced pass for --seconds and reports
   the per-layer split from the traced passes; the two must agree on
   every simulated number. perfbench/README.md defines each metric.

   The benchmark reaches the simulator only through public API: it
   times calls into a layer, wraps the public hook fields
   [Cpu.t.trap_handler] and [Controller.t.on_event], and reads public
   counters. Simulated numbers come from the repository's unvalidated
   cost model. The last line of stdout is one JSON object; the exit
   code is nonzero if any cell failed. *)

module Cfg = Softcache.Config
module Ctrl = Softcache.Controller

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* CPU time of this process (user + system), in ns. It leaves out the
   time a virtualised host gives our CPU to other guests. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(* Host words allocated so far: minor + major - promoted. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let ratio a b = if b = 0. then 0. else a /. b

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Nearest-rank percentile, [q] in [0, 1]. *)
let percentile (a : float array) q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))
  end

let geomean = function
  | [] -> 0.
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0. xs
      /. float (List.length xs))

(* Growable buffer of per-event host times, in ns. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let sum t = Array.fold_left ( +. ) 0. (to_array t)
end

(* ---- workloads ----------------------------------------------------- *)

type app = {
  name : string;
  img : Isa.Image.t;
  native : Softcache.Runner.result;
}

type 'app cell =
  | Solo of { app : 'app; tcache : int option; audit : bool }
  | Fleet of 'app array  (** client [i] runs [apps.(i)] *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The cells of a workload, by app name. The seed permutes the fleet's
   client-to-image assignment; pass order is permuted per pass. *)
let rec cells_of_workload rng = function
  | "solo" -> List.concat_map (cells_of_workload rng) [ "fit"; "thrash"; "audited" ]
  | "fit" ->
    List.map
      (fun (e : Workloads.Registry.entry) ->
        Solo { app = e.name; tcache = None; audit = false })
      Workloads.Registry.all
  | "thrash" ->
    List.map
      (fun app -> Solo { app; tcache = Some 2048; audit = false })
      [ "compress95"; "mpeg2enc"; "cjpeg" ]
  | "fleet_fn" ->
    [ Fleet (shuffle rng [| "compress95"; "mpeg2enc"; "compress95"; "mpeg2enc" |]) ]
  | "audited" ->
    List.map
      (fun (app, tcache) -> Solo { app; tcache = Some tcache; audit = true })
      [ ("mpeg2enc", 49152); ("compress95", 49152); ("cjpeg", 2048) ]
  | w -> invalid_arg ("unknown workload " ^ w)

let map_cell f = function
  | Solo { app; tcache; audit } -> Solo { app = f app; tcache; audit }
  | Fleet apps -> Fleet (Array.map f apps)

let cell_apps = function Solo { app; _ } -> [ app ] | Fleet apps -> Array.to_list apps

(* A cell made ready to run: fresh controllers over empty caches.
   [run mark] runs it to the end, calling [mark] at points that split
   the run into slices of the same work on every repetition. *)
type live = {
  ctrls : (Ctrl.t * app) list;
  run : (unit -> unit) -> unit;
  fleet : Fleet.t option;
}

(* Solo cells run in slices of this many instructions; the simulation
   is the same as one uninterrupted run. *)
let slice_instrs = 10_000

(* A fleet cannot be resumed after [Fleet.run] returns, so it is
   sliced at every [slice_traps]-th trap across its clients instead. *)
let slice_traps = 32

let instantiate = function
  | Solo { app; tcache; audit } ->
    let cfg =
      Cfg.make ?tcache_bytes:tcache ~audit ~net:(Netmodel.local ()) ()
    in
    let ctrl = Ctrl.create cfg app.img in
    ignore (Check.Audit.install_if_configured ctrl);
    let rec run mark =
      ignore (Ctrl.run ~fuel:slice_instrs ctrl : Machine.Cpu.outcome);
      mark ();
      (* a run far past the native length will not halt *)
      if not (ctrl.cpu.halted || ctrl.cpu.retired > 10 * app.native.retired) then
        run mark
    in
    { ctrls = [ (ctrl, app) ]; run; fleet = None }
  | Fleet apps ->
    let net = Netmodel.ethernet_10mbps () in
    let mk_cfg _ =
      Cfg.make ~tcache_bytes:4096 ~granularity:Cfg.Function ~net ()
    in
    let fl =
      Fleet.create
        ~config:
          (Fleet.config ~clients:(Array.length apps) ~dedup:true
             ~batching:true ())
        ~net mk_cfg
        (Array.map (fun a -> a.img) apps)
    in
    let ctrls =
      Array.to_list
        (Array.mapi (fun i s -> (Fleet.controller s, apps.(i))) (Fleet.sessions fl))
    in
    let traps = ref 0 and on_slice = ref ignore in
    List.iter
      (fun ((ctrl : Ctrl.t), _) ->
        Option.iter
          (fun handle ->
            ctrl.cpu.trap_handler <-
              Some
                (fun cpu k ->
                  handle cpu k;
                  incr traps;
                  if !traps mod slice_traps = 0 then !on_slice ()))
          ctrl.cpu.trap_handler)
      ctrls;
    let run mark =
      on_slice := mark;
      (* to halt: the default fuel stops every client at 2 M instructions *)
      Fleet.run ~fuel:max_int fl;
      mark ()
    in
    { ctrls; run; fleet = Some fl }

(* Every simulated number the benchmark reports for one cell, in a
   fixed order, so a traced and an untraced run compare with [=]. *)
let simulated live =
  let sum f = List.fold_left (fun a ((c : Ctrl.t), _) -> a + f c) 0 live.ctrls in
  let st f = sum (fun c -> f c.Ctrl.stats) in
  let open Softcache.Stats in
  let wire_bytes, wire_msgs, fleet =
    match live.fleet with
    | Some fl ->
      let s = Fleet.summary fl in
      ( s.f_wire_bytes,
        s.f_messages,
        [
          ("fleet.frames", s.f_frames);
          ("fleet.coalesced", s.f_coalesced);
          ("fleet.piggybacked", s.f_piggybacked);
          ("fleet.cache_hits", s.f_cache_hits);
          ("fleet.cache_misses", s.f_cache_misses);
        ] )
    | None ->
      ( sum (fun c -> Netmodel.total_bytes c.cfg.net),
        sum (fun c -> Netmodel.messages c.cfg.net),
        [] )
  in
  [
    ("cycles", sum (fun c -> c.cpu.cycles));
    ("retired", sum (fun c -> c.cpu.retired));
    ("wire_bytes", wire_bytes);
    ("wire_msgs", wire_msgs);
    ("stats.translations", st (fun s -> s.translations));
    ("stats.traps", st (fun s -> s.traps));
    ("stats.patches", st (fun s -> s.patches));
    ("stats.reverts", st (fun s -> s.reverts));
    ("stats.evicted_blocks", st (fun s -> s.evicted_blocks));
    ("stats.scrubbed_words", st (fun s -> s.scrubbed_words));
    ("stats.lookups", st (fun s -> s.lookups));
    ("stats.plt_patches", st (fun s -> s.plt_patches));
  ]
  @ fleet

let stall_samples live =
  match live.fleet with
  | None -> []
  | Some fl -> List.concat_map Fleet.stall_samples (Array.to_list (Fleet.sessions fl))

(* The correctness gate: every client halted with the native outputs,
   and a fleet passes its own audit. *)
let verify live =
  let client =
    List.find_map
      (fun ((c : Ctrl.t), app) ->
        if not c.cpu.halted then Some (app.name ^ ": did not halt")
        else if Machine.Cpu.outputs c.cpu <> app.native.outputs then
          Some (app.name ^ ": outputs differ from native")
        else None)
      live.ctrls
  in
  match (client, live.fleet) with
  | Some _, _ | None, None -> client
  | None, Some fl -> (
    match Check.Audit.fleet fl with
    | [] -> None
    | v :: _ ->
      Some (Format.asprintf "fleet audit: %a" Check.Audit.pp_violation v))

type result = {
  slices : int array;  (** host CPU ns of each slice *)
  ns : int;  (** host wall-clock ns of the whole run *)
  words : float;  (** host words allocated inside the run *)
  minor_gcs : int;  (** GC collections inside the run *)
  major_gcs : int;
  retired : int;
  ratios : float list;  (** cached / native simulated cycles, per client *)
  sim : (string * int) list;
  stalls : float list;
  error : string option;
}

(* ---- traced instrumentation ---------------------------------------- *)

(* Accumulators filled from the hooks of traced cells. *)
type probe = {
  traps : Samples.t;
  mutable trap_words : float;
  mutable miss_ns : float;  (** host time of traps that translated *)
  mutable miss_units : int;  (** translations made inside those traps *)
  audits : Samples.t;
  ledger : int array;  (** execute translate wire trap patch scrub lookup total *)
  mutable decode_hits : int;
  mutable decode_misses : int;
  mutable conserved : bool;
  mutable replay : ((unit -> Softcache.Chunker.t) * (int -> int option)) list;
      (** the translated units of one pass, re-chunkable on demand, each
          with its controller's PLT slot map *)
  mutable base : int;
  mutable record_units : bool;
}

let new_probe () =
  {
    traps = Samples.create ();
    trap_words = 0.;
    miss_ns = 0.;
    miss_units = 0;
    audits = Samples.create ();
    ledger = Array.make 8 0;
    decode_hits = 0;
    decode_misses = 0;
    conserved = true;
    replay = [];
    base = 0;
    record_units = true;
  }

(* Words the two [alloc_words] reads around an empty region allocate
   themselves; subtracted from each per-trap reading. *)
let read_overhead_words =
  lazy
    (median
       (List.init 64 (fun _ ->
            let w0 = alloc_words () in
            alloc_words () -. w0)))

(* How the controller chunks a miss at [v], mirrored from its public
   state at the end of the run: whole functions in function
   granularity, except inside extents it degraded to basic blocks. *)
let unit_chunker (ctrl : Ctrl.t) =
  let img = ctrl.image and cfg = ctrl.cfg in
  let degraded = Hashtbl.copy ctrl.gran_degraded in
  fun v () ->
    match cfg.granularity with
    | Cfg.Block -> Softcache.Chunker.chunk_at img cfg.chunking v
    | Cfg.Function ->
      if Hashtbl.fold (fun lo hi acc -> acc || (v >= lo && v < hi)) degraded false
      then Softcache.Chunker.chunk_at img Cfg.Basic_block v
      else Softcache.Chunker.chunk_function img v

let instrument p live =
  let words_overhead = Lazy.force read_overhead_words in
  let hooked =
    List.map
      (fun ((ctrl : Ctrl.t), _) ->
        let tr = Trace.create () in
        Ctrl.attach_tracer ctrl tr;
        (match ctrl.cpu.trap_handler with
        | None -> ()
        | Some handle ->
          ctrl.cpu.trap_handler <-
            Some
              (fun cpu k ->
                let units = ctrl.stats.translations in
                let w0 = alloc_words () in
                let t0 = now_ns () in
                handle cpu k;
                let dt = float (now_ns () - t0) in
                p.trap_words <- p.trap_words +. (alloc_words () -. w0 -. words_overhead);
                Samples.add p.traps dt;
                let made = ctrl.stats.translations - units in
                if made > 0 then begin
                  p.miss_ns <- p.miss_ns +. dt;
                  p.miss_units <- p.miss_units + made
                end));
        let translated = ref [] in
        let audit = ctrl.on_event in
        ctrl.on_event <-
          Some
            (fun ev ->
              (match ev with Ctrl.Translated v -> translated := v :: !translated | _ -> ());
              match audit with
              | None -> ()
              | Some f ->
                let t0 = now_ns () in
                f ev;
                Samples.add p.audits (float (now_ns () - t0)));
        (ctrl, tr, translated))
      live.ctrls
  in
  fun () ->
    List.iter
      (fun ((ctrl : Ctrl.t), tr, translated) ->
        if not (Trace.conserved tr ~total:ctrl.cpu.cycles) then p.conserved <- false;
        let s = Trace.summary tr in
        List.iteri
          (fun i c -> p.ledger.(i) <- p.ledger.(i) + c)
          [ s.s_execute; s.s_translate; s.s_wire; s.s_trap; s.s_patch; s.s_scrub;
            s.s_lookup; s.s_total ];
        let d = Machine.Memory.decode_stats ctrl.cpu.mem in
        p.decode_hits <- p.decode_hits + d.hits;
        p.decode_misses <- p.decode_misses + d.misses;
        if p.record_units then begin
          let chunk = unit_chunker ctrl and plt = Hashtbl.copy ctrl.plt in
          let plt_of tv = Option.map fst (Hashtbl.find_opt plt tv) in
          p.replay <- List.rev_map (fun v -> (chunk v, plt_of)) !translated @ p.replay;
          p.base <- ctrl.cfg.tcache_base
        end)
      hooked

let run_cell ?probe cell =
  (* the previous cell's controllers die here, outside the timed
     region, so no cell pays for another's garbage *)
  Gc.full_major ();
  let live = instantiate cell in
  let finish = match probe with Some p -> instrument p live | None -> ignore in
  let slices = ref [] in
  let gc0 = Gc.quick_stat () in
  let w0 = alloc_words () in
  let wall0 = now_ns () in
  let last = ref (cpu_ns ()) in
  let mark () =
    let t = cpu_ns () in
    slices := (t - !last) :: !slices;
    last := t
  in
  let raised =
    match live.run mark with () -> None | exception e -> Some (Printexc.to_string e)
  in
  let ns = now_ns () - wall0 in
  let words = alloc_words () -. w0 in
  let gc1 = Gc.quick_stat () in
  finish ();
  let slices = Array.of_list (List.rev !slices) in
  {
    slices;
    ns;
    words;
    minor_gcs = gc1.minor_collections - gc0.minor_collections;
    major_gcs = gc1.major_collections - gc0.major_collections;
    retired = List.fold_left (fun a ((c : Ctrl.t), _) -> a + c.cpu.retired) 0 live.ctrls;
    ratios =
      List.map
        (fun ((c : Ctrl.t), app) -> float c.cpu.cycles /. float app.native.cycles)
        live.ctrls;
    sim = simulated live;
    stalls = stall_samples live;
    error = (match raised with Some _ -> raised | None -> verify live);
  }

(* ---- set-up and passes --------------------------------------------- *)

let find_app name =
  match Workloads.Registry.find name with
  | Some e -> e
  | None -> failwith ("no registry workload " ^ name)

(* Image build, native reference runs and controller creation. *)
let setup names =
  let apps = Hashtbl.create 8 in
  let app name =
    match Hashtbl.find_opt apps name with
    | Some a -> a
    | None ->
      let img = (find_app name).build () in
      let a = { name; img; native = Softcache.Runner.native img } in
      Hashtbl.add apps name a;
      a
  in
  let cells = List.map (map_cell app) names in
  List.iter (fun c -> ignore (instantiate c : live)) cells;
  cells

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* Every cell run and every cross-check counts as one attempt. *)
let check = function
  | None -> tally.attempted <- tally.attempted + 1
  | Some msg ->
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    prerr_endline ("FAILED: " ^ msg)

let account (r : result) =
  check r.error;
  r

(* One pass: every cell once, in [order]. *)
let pass ?probe order = List.map (fun c -> account (run_cell ?probe c)) order

let sum_ns rs = float (List.fold_left (fun a r -> a + r.ns) 0 rs)
let sum_retired rs = float (List.fold_left (fun a r -> a + r.retired) 0 rs)
let sim_total key rs =
  List.fold_left (fun a r -> a + Option.value ~default:0 (List.assoc_opt key r.sim)) 0 rs

(* ---- reporting ----------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let report metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-26s %14.6g %s\n" name v unit) metrics;
  let correct = tally.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
          metrics));
  exit (if correct then 0 else 1)

(* ---- the two kinds of run ------------------------------------------ *)

let setup_repeats = 5

(* Host time of a cell, best-of-N per slice: the host's noise is
   co-runners slowing it for seconds to tens of seconds at a time, so
   the fastest repetition of each slice is the steadiest estimate of
   its cost. *)
let best_ns = function
  | [] -> 0
  | r0 :: _ as rs ->
    let best j =
      List.fold_left
        (fun m r -> if j < Array.length r.slices then min m r.slices.(j) else m)
        max_int rs
    in
    let total = ref 0 in
    Array.iteri (fun j _ -> total := !total + best j) r0.slices;
    !total

(* Host speed, measured while a run goes on. Co-tenants of a shared
   host slow this process by up to ~40% for tens of seconds to minutes
   at a time, in CPU time as much as in wall time, by contending for the
   last-level cache; best-of-N over a run cannot see past a slowdown
   that lasts the whole run. hostspeed.exe times a fixed cache-bound
   kernel in a process of its own, between cells; its fast decile over
   the run says how slow the host was. End-to-end host times are scaled
   by it to a host on which the kernel takes [ref_ns] (an idle 2-core
   Xeon VM). The kernel follows only part of a slowdown. *)
module Host = struct
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "hostspeed.exe"
  let ref_ns = 1_650_000.
  let every_ns = 1_000_000_000

  type t = { kernel : Samples.t; mutable last : int }

  let create () = { kernel = Samples.create (); last = 0 }

  (* one kernel run, at most every [every_ns] *)
  let sample t =
    if t.kernel.n = 0 || now_ns () - t.last >= every_ns then begin
      let ic = Unix.open_process_args_in exe [| exe |] in
      let ns = input_line ic in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith (exe ^ " failed"));
      Samples.add t.kernel (float_of_string ns);
      t.last <- now_ns ()
    end

  let fast_ns t = percentile (Samples.to_array t.kernel) 0.1

  (* host time here, times [to_ref], is host time on the reference *)
  let to_ref t = ref_ns /. fast_ns t
end

(* A result kept for later passes: fleet stall samples are only read
   from one pass, and keeping them all would grow the heap run by run. *)
let stored r = { r with stalls = [] }

let end_to_end ~rng ~seconds names =
  let setup_s = ref [] and cells = ref [] in
  for _ = 1 to setup_repeats do
    (* the previous set-up's cells can be freed during this one *)
    cells := [];
    let t0 = cpu_ns () in
    cells := setup names;
    setup_s := (float (cpu_ns () - t0) /. 1e9) :: !setup_s
  done;
  let cells = Array.of_list !cells in
  let n = Array.length cells in
  ignore (account (run_cell cells.(Random.State.int rng n)) : result);
  Gc.compact ();
  let runs = Array.make n [] in
  let host = Host.create () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  (* the peak after a fixed amount of work, not after however many
     passes the host's speed allowed *)
  let top_heap_words = ref 0 in
  (* a pass stops at the deadline, except the first: every cell runs *)
  let rec loop first =
    Array.iter
      (fun i ->
        if first || now_ns () < deadline then begin
          Host.sample host;
          runs.(i) <- stored (account (run_cell cells.(i))) :: runs.(i)
        end)
      (shuffle rng (Array.init n Fun.id));
    if first then top_heap_words := (Gc.quick_stat ()).top_heap_words;
    if now_ns () < deadline then loop false
  in
  loop true;
  let each = Array.to_list (Array.map List.hd runs) in
  let best_ns = Array.fold_left (fun a rs -> a + best_ns rs) 0 runs in
  let setup_s = median !setup_s and sim_mips = sum_retired each /. float best_ns *. 1e3 in
  let k = Host.to_ref host in
  Printf.eprintf
    "host: %d kernel runs, fast decile %.3f ms (reference %.3f ms); as measured: setup_s %.4f, sim_mips %.4f\n%!"
    host.kernel.n (Host.fast_ns host /. 1e6) (Host.ref_ns /. 1e6) setup_s sim_mips;
  [
    ("setup_s", setup_s *. k, "s");
    ("sim_mips", sim_mips /. k, "Minstr/s");
    ( "alloc_mwords",
      Array.fold_left (fun a rs -> a +. median (List.map (fun r -> r.words) rs)) 0. runs
      /. 1e6,
      "Mwords" );
    ("peak_heap_mb", float (!top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
    ("slowdown", geomean (List.concat_map (fun r -> r.ratios) each), "x");
    ("wire_bytes", float (sim_total "wire_bytes" each), "bytes");
    ("wire_msgs", float (sim_total "wire_msgs" each), "count");
  ]

(* Host time of [Cpu.run] on the native references, per retired
   instruction; the CPUs are built outside the timed region. *)
let native_ns_per_instr cells =
  let imgs =
    List.sort_uniq compare (List.concat_map cell_apps cells)
    |> List.map (fun a -> a.img)
  in
  median
    (List.init 3 (fun _ ->
         let ns, retired =
           List.fold_left
             (fun (ns, retired) img ->
               let cpu = Machine.Cpu.of_image img in
               let t0 = now_ns () in
               ignore (Machine.Cpu.run cpu : Machine.Cpu.outcome);
               (ns + now_ns () - t0, retired + cpu.retired))
             (0, 0) imgs
         in
         float ns /. float retired))

(* Re-chunk and re-rewrite the recorded units of one traced pass (at
   most [replay_cap], evenly strided), every exit unresolved. *)
let replay_cap = 20_000

let replay p =
  let units = Array.of_list (List.rev p.replay) in
  let n = Array.length units in
  let stride = max 1 ((n + replay_cap - 1) / replay_cap) in
  let units = Array.init ((n + stride - 1) / stride) (fun i -> units.(i * stride)) in
  let t0 = now_ns () in
  let chunks = Array.map (fun (mk, _) -> mk ()) units in
  let chunk_ns = now_ns () - t0 in
  let next_stub = ref 0 in
  let alloc_stub make =
    let k = !next_stub in
    incr next_stub;
    ignore (make k : Softcache.Stub.t);
    k
  in
  let w0 = alloc_words () in
  let t0 = now_ns () in
  Array.iteri
    (fun i c ->
      ignore
        (Softcache.Rewriter.translate ~plt_of:(snd units.(i)) c ~block_id:i ~base:p.base
           ~resident:(fun _ -> None) ~alloc_stub
          : Softcache.Rewriter.emission))
    chunks;
  let rewrite_ns = now_ns () - t0 in
  let rewrite_words = alloc_words () -. w0 in
  let k = float (Array.length chunks) in
  (ratio (float chunk_ns) k /. 1e3, ratio (float rewrite_ns) k /. 1e3, ratio rewrite_words k)

let per_layer ~rng ~seconds names =
  let cells = Array.of_list (setup names) in
  ignore (account (run_cell cells.(Random.State.int rng (Array.length cells))) : result);
  Gc.compact ();
  let machine_ns = native_ns_per_instr (Array.to_list cells) in
  let p = new_probe () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop acc =
    let order = Array.to_list (shuffle rng cells) in
    let plain = pass order in
    let traced = pass ~probe:p order in
    p.record_units <- false;
    List.iter2
      (fun (u : result) (t : result) ->
        check
          (if u.sim <> t.sim || u.ratios <> t.ratios || u.stalls <> t.stalls then
             Some "traced run differs from untraced run"
           else None))
      plain traced;
    let gcs f = float (List.fold_left (fun a r -> a + f r) 0 plain) in
    let traced = if acc = [] then traced else List.map stored traced in
    let pair =
      (List.map stored plain, traced, gcs (fun r -> r.minor_gcs), gcs (fun r -> r.major_gcs))
    in
    if now_ns () >= deadline then List.rev (pair :: acc) else loop (pair :: acc)
  in
  let pairs = loop [] in
  check (if p.conserved then None else Some "cycle ledger does not conserve");
  let chunk_us, rewrite_us, rewrite_words = replay p in
  let traced = List.concat_map (fun (_, t, _, _) -> t) pairs in
  let npasses = float (List.length pairs) in
  let first = (fun (_, t, _, _) -> t) (List.hd pairs) in
  let traced_ns = sum_ns traced and traced_retired = sum_retired traced in
  let trap_ns = Samples.sum p.traps and audit_ns = Samples.sum p.audits in
  let traps = Samples.to_array p.traps and audits = Samples.to_array p.audits in
  let miss_us = ratio p.miss_ns (float p.miss_units) /. 1e3 in
  let ledger i = ratio (float p.ledger.(i)) (float p.ledger.(7)) in
  let count key = float (sim_total key first) in
  let fleet_stalls = Array.of_list (List.concat_map (fun r -> r.stalls) first) in
  [
    ("machine.ns_per_instr", machine_ns, "ns");
    ("exec.ns_per_instr", (traced_ns -. trap_ns) /. traced_retired, "ns");
    ( "machine.decode_hit_ratio",
      ratio (float p.decode_hits) (float (p.decode_hits + p.decode_misses)),
      "ratio" );
    ("trap.count", float (Array.length traps) /. npasses, "count");
    ("trap.busy_frac", ratio trap_ns traced_ns, "ratio");
    ("trap.us_p50", percentile traps 0.5 /. 1e3, "us");
    ("trap.us_p99", percentile traps 0.99 /. 1e3, "us");
    ("trap.words_per_trap", ratio p.trap_words (float (Array.length traps)), "words");
    ("miss.us_per_translation", miss_us, "us");
    ("chunker.us_per_chunk", chunk_us, "us");
    ("rewriter.us_per_chunk", rewrite_us, "us");
    ("rewriter.words_per_chunk", rewrite_words, "words");
    ("miss.other_us", miss_us -. chunk_us -. rewrite_us, "us");
    ("audit.count", float (Array.length audits) /. npasses, "count");
    ("audit.busy_frac", ratio audit_ns traced_ns, "ratio");
    ("audit.us_p50", percentile audits 0.5 /. 1e3, "us");
    ("audit.us_p99", percentile audits 0.99 /. 1e3, "us");
    ("cycles.execute_frac", ledger 0, "ratio");
    ("cycles.translate_frac", ledger 1, "ratio");
    ("cycles.wire_frac", ledger 2, "ratio");
    ("cycles.trap_frac", ledger 3, "ratio");
    ("cycles.patch_frac", ledger 4, "ratio");
    ("cycles.scrub_frac", ledger 5, "ratio");
    ("cycles.lookup_frac", ledger 6, "ratio");
    ("stats.translations", count "stats.translations", "count");
    ("stats.miss_rate", ratio (count "stats.translations") (count "retired"), "ratio");
    ("stats.traps", count "stats.traps", "count");
    ("stats.patches", count "stats.patches", "count");
    ("stats.reverts", count "stats.reverts", "count");
    ("stats.evicted_blocks", count "stats.evicted_blocks", "count");
    ("stats.scrubbed_words", count "stats.scrubbed_words", "count");
    ("stats.lookups", count "stats.lookups", "count");
    ("stats.plt_patches", count "stats.plt_patches", "count");
    ("fleet.frames", count "fleet.frames", "count");
    ("fleet.coalesced", count "fleet.coalesced", "count");
    ("fleet.piggybacked", count "fleet.piggybacked", "count");
    ( "fleet.cache_hit_ratio",
      ratio (count "fleet.cache_hits") (count "fleet.cache_hits" +. count "fleet.cache_misses"),
      "ratio" );
    ("fleet.stall_p50_cycles", percentile fleet_stalls 0.5, "cycles");
    ("fleet.stall_p99_cycles", percentile fleet_stalls 0.99, "cycles");
    ("gc.minor_collections", median (List.map (fun (_, _, m, _) -> m) pairs), "count");
    ("gc.major_collections", median (List.map (fun (_, _, _, m) -> m) pairs), "count");
    ( "trace.overhead_frac",
      median (List.map (fun (u, t, _, _) -> (sum_ns t /. sum_ns u) -. 1.) pairs),
      "ratio" );
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " solo | fleet_fn (the benchmark), or a part of solo: fit | thrash | audited" );
      ("--seed", Arg.Set_int seed, " permutes cell order and fleet clients (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured time per run (default 20)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer split");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  let rng = Random.State.make [| !seed |] in
  let names =
    match cells_of_workload rng !workload with
    | names -> names
    | exception Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  match !trace with
  | 0 -> report (end_to_end ~rng ~seconds:!seconds names)
  | 1 -> report (per_layer ~rng ~seconds:!seconds names)
  | _ ->
    prerr_endline "--trace takes 0 or 1";
    exit 2
