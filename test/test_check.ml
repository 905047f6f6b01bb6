(* Tests of the lib/check subsystem itself: the invariant auditor must
   pass on healthy runs, FAIL when a real bookkeeping bug is seeded
   (proving the invariants are not vacuous), and the lockstep
   differential runner must track native execution access-for-access —
   including across mid-run invalidations and flushes. *)

let reg = Isa.Reg.r

let prog_sum n =
  let b = Isa.Builder.create "sum" in
  Isa.Builder.li b (reg 1) n;
  Isa.Builder.li b (reg 2) 0;
  let top = Isa.Builder.label b in
  Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 2, reg 1));
  Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
  Isa.Builder.br b Ne (reg 1) Isa.Reg.zero top;
  Isa.Builder.ins b (Isa.Instr.Out (reg 2));
  Isa.Builder.ins b Isa.Instr.Halt;
  Isa.Builder.build b

let prog_fib ?(spare_word = false) n =
  let b = Isa.Builder.create "fib" in
  if spare_word then ignore (Isa.Builder.word b 0);
  let fib = Isa.Builder.new_label b in
  let base = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Isa.Builder.func b "fib" fib (fun () ->
      Isa.Builder.li b (reg 3) 2;
      Isa.Builder.br b Lt (reg 1) (reg 3) base;
      Isa.Builder.ins b (Isa.Instr.Alui (Add, Isa.Reg.sp, Isa.Reg.sp, -12));
      Isa.Builder.ins b (Isa.Instr.St (Isa.Reg.ra, Isa.Reg.sp, 0));
      Isa.Builder.ins b (Isa.Instr.St (reg 1, Isa.Reg.sp, 4));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.St (reg 2, Isa.Reg.sp, 8));
      Isa.Builder.ins b (Isa.Instr.Ld (reg 1, Isa.Reg.sp, 4));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -2));
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.Ld (reg 3, Isa.Reg.sp, 8));
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 2, reg 3));
      Isa.Builder.ins b (Isa.Instr.Ld (Isa.Reg.ra, Isa.Reg.sp, 0));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, Isa.Reg.sp, Isa.Reg.sp, 12));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra);
      Isa.Builder.here b base;
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 1, Isa.Reg.zero));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 1) n;
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b

let small_cfg ?(tcache_bytes = 1024) ?(eviction = Softcache.Config.Fifo) ()
    =
  Softcache.Config.make ~tcache_bytes
    ~chunking:Softcache.Config.Basic_block ~eviction ()

(* ------------------------------------------------------------------ *)
(* Auditor on healthy runs *)

let test_audit_clean_thrashing () =
  (* a real workload in a 2 KB cache: evictions, scrubbing, persistent
     stubs — the auditor must stay silent through all of it *)
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  List.iter
    (fun (pname, eviction) ->
      let ctrl =
        Softcache.Controller.create
          (small_cfg ~tcache_bytes:2048 ~eviction ())
          img
      in
      let audits = Check.Audit.install ctrl in
      let outcome = Softcache.Controller.run ~fuel:3_000_000 ctrl in
      Alcotest.(check bool) (pname ^ " halts") true
        (outcome = Machine.Cpu.Halted);
      Alcotest.(check bool) (pname ^ " auditor exercised") true
        (!audits > 100);
      Alcotest.(check bool) (pname ^ " cache actually thrashed") true
        (ctrl.stats.evicted_blocks > 0))
    Softcache.Config.eviction_table

let test_collateral_labels_conserve () =
  (* regression: the implicit FIFO sweep once labelled every casualty a
     policy victim, hiding collateral evictions from policies, stats and
     the auditor. Every eviction must carry exactly one label and reach
     the event hook, with the auditor re-checking after each one. *)
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  let native = Softcache.Runner.native ~fuel:3_000_000 img in
  let evicted_via_hook = ref 0 in
  let ctrl =
    Softcache.Controller.create (small_cfg ~tcache_bytes:2048 ()) img
  in
  ctrl.on_event <-
    Some
      (function
      | Softcache.Controller.Evicted n ->
        evicted_via_hook := !evicted_via_hook + n
      | _ -> ());
  ignore (Check.Audit.install ctrl);
  let outcome = Softcache.Controller.run ~fuel:3_000_000 ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  Alcotest.(check (list int)) "outputs" native.outputs
    (Machine.Cpu.outputs ctrl.cpu);
  Alcotest.(check bool) "collateral evictions happened" true
    (ctrl.stats.evicted_collateral > 0);
  Alcotest.(check bool) "victim evictions happened" true
    (ctrl.stats.evicted_victim > 0);
  Alcotest.(check bool) "patched exits were unpatched" true
    (ctrl.stats.reverts > 0);
  Alcotest.(check int) "every eviction reached the event hook"
    ctrl.stats.evicted_blocks !evicted_via_hook;
  Alcotest.(check int) "labels conserve" ctrl.stats.evicted_blocks
    (ctrl.stats.evicted_victim + ctrl.stats.evicted_collateral
   + ctrl.stats.evicted_stub_growth + ctrl.stats.evicted_invalidated
   + ctrl.stats.evicted_flushed)

let test_audit_counts_events () =
  let ctrl = Softcache.Controller.create (small_cfg ()) (prog_sum 50) in
  let audits = Check.Audit.install ctrl in
  ignore (Softcache.Controller.run ctrl);
  (* at minimum one Translated event per translation *)
  Alcotest.(check bool) "audits >= translations" true
    (!audits >= ctrl.stats.translations)

let test_install_if_configured () =
  let off = Softcache.Controller.create (small_cfg ()) (prog_sum 5) in
  Alcotest.(check bool) "off by default" true
    (Check.Audit.install_if_configured off = None);
  let cfg =
    Softcache.Config.make ~tcache_bytes:1024 ~audit:true
      ~chunking:Softcache.Config.Basic_block ()
  in
  let on = Softcache.Controller.create cfg (prog_sum 5) in
  Alcotest.(check bool) "on when configured" true
    (Check.Audit.install_if_configured on <> None)

(* ------------------------------------------------------------------ *)
(* Mutation test: seed a real bookkeeping bug, the auditor must object *)

let test_audit_catches_dropped_incoming () =
  (* chaos_drop_incoming silently skips the next incoming-pointer
     record — exactly the bug class the eviction protocol cannot
     tolerate. The auditor's completeness scan must flag it at the
     next consistent point. *)
  let ctrl = Softcache.Controller.create (small_cfg ()) (prog_fib 12) in
  ignore (Check.Audit.install ctrl);
  ctrl.chaos_drop_incoming <- 1;
  match Softcache.Controller.run ctrl with
  | _ -> Alcotest.fail "auditor missed the dropped incoming record"
  | exception Check.Audit.Audit_failure vs ->
    Alcotest.(check bool) "names the incoming invariant" true
      (List.exists (fun (v : Check.Audit.violation) ->
           v.invariant = "incoming") vs)

let test_audit_run_reports_without_raising () =
  (* Audit.run returns violations as data; only check_exn throws. Stop
     at the first violation — running on with a seeded bookkeeping bug
     would eventually execute through a stale pointer. *)
  let ctrl = Softcache.Controller.create (small_cfg ()) (prog_fib 12) in
  ctrl.chaos_drop_incoming <- 1;
  let saw = ref [] in
  ctrl.on_event <-
    Some
      (fun _ ->
        match Check.Audit.run ctrl with
        | [] -> ()
        | vs ->
          saw := vs;
          raise Exit);
  (match Softcache.Controller.run ctrl with
  | _ -> ()
  | exception Exit -> ());
  match !saw with
  | _ :: _ -> ()
  | [] -> Alcotest.fail "expected at least one violation"

(* ------------------------------------------------------------------ *)
(* Lockstep against native: one cached mode per check *)

let cached cfg = [ ("cached", fun () -> cfg) ]

let check_equiv name verdict =
  match verdict with
  | Check.Lockstep.Equivalent { steps } ->
    Alcotest.(check bool) (name ^ " compared something") true (steps > 0)
  | v ->
    Alcotest.failf "%s: expected equivalence, got %a" name
      Check.Lockstep.pp_verdict v

let test_lockstep_equivalent () =
  check_equiv "sum"
    (Check.Lockstep.modes
       (cached (small_cfg ~tcache_bytes:768 ()))
       (prog_sum 200));
  check_equiv "fib/fifo"
    (Check.Lockstep.modes ~audit:true (cached (small_cfg ())) (prog_fib 12));
  check_equiv "fib/flush"
    (Check.Lockstep.modes
       (cached (small_cfg ~eviction:Softcache.Config.Flush_all ()))
       (prog_fib 12))

let test_lockstep_midrun_invalidate () =
  (* invalidate the whole image range twice mid-run: execution must
     still track the native access stream exactly *)
  let img = prog_fib 13 in
  let hi = 0x1000 + Isa.Image.static_text_bytes img in
  let inv ctrl = Softcache.Controller.invalidate ctrl ~lo:0 ~hi in
  check_equiv "invalidate mid-run"
    (Check.Lockstep.modes ~audit:true ~ops:[ inv; inv ]
       (cached (small_cfg ()))
       img)

let test_lockstep_midrun_flush () =
  let img = prog_fib 13 in
  check_equiv "flush mid-run"
    (Check.Lockstep.modes ~audit:true
       ~ops:[ Softcache.Controller.flush; Softcache.Controller.flush ]
       (cached (small_cfg ()))
       img)

let dead_link_cfg () =
  let faults = Netmodel.Faults.make ~seed:1 ~drop:1.0 () in
  Softcache.Config.make ~tcache_bytes:1024
    ~chunking:Softcache.Config.Basic_block
    ~net:(Netmodel.local ~faults ()) ()

let expect_unavailable = function
  | Check.Lockstep.Unavailable _ -> ()
  | v ->
    Alcotest.failf "expected Unavailable, got %a" Check.Lockstep.pp_verdict v

let test_lockstep_unavailable () =
  (* a dead link: the verdict must be Unavailable, not an exception *)
  expect_unavailable
    (Check.Lockstep.modes (cached (dead_link_cfg ())) (prog_sum 10))

let test_lockstep_native_fuel () =
  match
    Check.Lockstep.modes ~fuel:10 (cached (small_cfg ())) (prog_sum 1000)
  with
  | Check.Lockstep.Native_out_of_fuel -> ()
  | v ->
    Alcotest.failf "expected Native_out_of_fuel, got %a"
      Check.Lockstep.pp_verdict v

let test_lockstep_policies () =
  (* the whole replacement-policy registry against one native
     recording, with the auditor (including its policy-view section) on
     each cached side *)
  let built = ref [] in
  let mode (name, eviction) =
    ( name,
      fun () ->
        built := name :: !built;
        small_cfg ~eviction () )
  in
  check_equiv "policy registry"
    (Check.Lockstep.modes ~audit:true
       (List.map mode Softcache.Config.eviction_table)
       (prog_fib 12));
  Alcotest.(check (list string))
    "covers the registry"
    (List.map fst Softcache.Config.eviction_table)
    (List.rev !built)

(* ------------------------------------------------------------------ *)
(* Decoded vs interpretive dispatch in lockstep *)

let check_engines_equiv name verdict =
  match verdict with
  | Check.Lockstep.Equivalent { steps } ->
    Alcotest.(check bool) (name ^ " stepped something") true (steps > 0)
  | v ->
    Alcotest.failf "%s: expected engine equivalence, got %a" name
      Check.Lockstep.pp_verdict v

let test_engines_equivalent () =
  check_engines_equiv "sum"
    (Check.Lockstep.pair Engines
       (fun () -> small_cfg ~tcache_bytes:768 ())
       (prog_sum 200));
  check_engines_equiv "fib/fifo"
    (Check.Lockstep.pair ~audit:true Engines
       (fun () -> small_cfg ())
       (prog_fib 10));
  check_engines_equiv "fib/flush"
    (Check.Lockstep.pair Engines
       (fun () -> small_cfg ~eviction:Softcache.Config.Flush_all ())
       (prog_fib 10))

let test_engines_midrun_ops () =
  (* tcache invalidation, a full flush and a decode-cache flush fired
     at identical instruction boundaries on both sides: the rewriting
     storm that follows must leave the engines in identical state at
     every subsequent step *)
  let img = prog_fib 12 in
  let native = Softcache.Runner.native img in
  let hi = 0x1000 + Isa.Image.static_text_bytes img in
  let inv c = Softcache.Controller.invalidate c ~lo:0 ~hi in
  let dflush (c : Softcache.Controller.t) =
    Machine.Memory.decode_flush c.cpu.mem
  in
  let fuel = native.retired in
  let slice = fuel / 4 in
  match
    Check.Lockstep.pair ~audit:true ~fuel
      ~ops:[ inv; Softcache.Controller.flush; dflush ]
      Engines
      (fun () -> small_cfg ())
      img
  with
  | Check.Lockstep.Equivalent { steps }
  | Check.Lockstep.Out_of_fuel { steps } ->
    Alcotest.(check bool) "ops fired mid-run" true (steps >= slice)
  | v -> Alcotest.failf "mid-run ops: %a" Check.Lockstep.pp_verdict v

let test_engines_registry () =
  (* every shipped workload, stepped under a thrashing 2 KB tcache;
     out-of-fuel counts as success — every compared step matched *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      match
        Check.Lockstep.pair ~fuel:60_000 Engines
          (fun () -> small_cfg ~tcache_bytes:2048 ())
          img
      with
      | Check.Lockstep.Equivalent { steps }
      | Check.Lockstep.Out_of_fuel { steps } ->
        Alcotest.(check bool) (e.name ^ " stepped something") true (steps > 0)
      | v -> Alcotest.failf "%s: %a" e.name Check.Lockstep.pp_verdict v)
    Workloads.Registry.all

let test_engines_unavailable () =
  expect_unavailable
    (Check.Lockstep.pair Engines dead_link_cfg (prog_sum 10))

(* ------------------------------------------------------------------ *)
(* Mutation: every oracle check must object to a seeded bug, proving
   none of them is vacuously equivalent *)

let oracle_mutations =
  let fib = prog_fib 12 in
  let skew_r9 (c : Softcache.Controller.t) =
    c.cpu.regs.(9) <- c.cpu.regs.(9) + 1
  in
  (* fib over a data segment holding one word the program never reads *)
  let spare = prog_fib ~spare_word:true 12 in
  let spare_addr = spare.Isa.Image.data_base in
  let gran g () =
    { (small_cfg ~tcache_bytes:4096 ()) with Softcache.Config.granularity = g }
  in
  let cases =
    [
      ( "engines: register skew on the decoded side",
        fun () ->
          Check.Lockstep.pair ~fuel:100
            ~ops:
              [
                (fun c ->
                  if c.cpu.engine = Machine.Cpu.Decoded then skew_r9 c);
              ]
            Engines
            (fun () -> small_cfg ())
            fib );
      ( "prefetch: register skew on the prefetching side",
        fun () ->
          Check.Lockstep.pair ~fuel:100
            ~ops:
              [
                (fun c ->
                  if c.cfg.Softcache.Config.prefetch_degree > 0 then
                    skew_r9 c);
              ]
            Prefetch
            (fun () ->
              { (small_cfg ()) with Softcache.Config.prefetch_degree = 2 })
            fib );
      ( "modes: unread data word written on function granularity only",
        (* the access stream and outputs still match native, so only the
           final-data comparison across modes can catch this; [fuel]
           puts the op's slice boundary mid-run *)
        fun () ->
          let fuel = 3 * (Softcache.Runner.native spare).retired / 2 in
          Check.Lockstep.modes ~fuel
            ~ops:
              [
                (fun c ->
                  if c.cfg.Softcache.Config.granularity = Function then
                    Machine.Memory.write32 c.cpu.mem spare_addr 1);
              ]
            [
              ("block", gran Softcache.Config.Block);
              ("function", gran Softcache.Config.Function);
            ]
            spare );
    ]
  in
  List.map
    (fun (name, run) ->
      ( name,
        fun () ->
          match run () with
          | Check.Lockstep.Diverged _ -> ()
          | v ->
            Alcotest.failf "%s: expected divergence, got %a" name
              Check.Lockstep.pp_verdict v ))
    cases

let mutation_case name = List.assoc name oracle_mutations

let () =
  Alcotest.run "check"
    [
      ( "audit",
        [
          Alcotest.test_case "clean under thrashing" `Quick
            test_audit_clean_thrashing;
          Alcotest.test_case "fires per event" `Quick test_audit_counts_events;
          Alcotest.test_case "collateral labels conserve" `Quick
            test_collateral_labels_conserve;
          Alcotest.test_case "wired behind Config.audit" `Quick
            test_install_if_configured;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "catches a dropped incoming record" `Quick
            test_audit_catches_dropped_incoming;
          Alcotest.test_case "run returns violations as data" `Quick
            test_audit_run_reports_without_raising;
          Alcotest.test_case "lockstep catches a prefetch-side skew" `Quick
            (mutation_case "prefetch: register skew on the prefetching side");
          Alcotest.test_case "modes catch a cross-mode data mismatch" `Quick
            (mutation_case
               "modes: unread data word written on function granularity only");
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "equivalent streams" `Quick
            test_lockstep_equivalent;
          Alcotest.test_case "invalidate mid-run" `Quick
            test_lockstep_midrun_invalidate;
          Alcotest.test_case "flush mid-run" `Quick test_lockstep_midrun_flush;
          Alcotest.test_case "unavailable surfaces cleanly" `Quick
            test_lockstep_unavailable;
          Alcotest.test_case "native fuel exhaustion" `Quick
            test_lockstep_native_fuel;
          Alcotest.test_case "policy registry equivalence" `Quick
            test_lockstep_policies;
        ] );
      ( "engines",
        [
          Alcotest.test_case "decoded = interpretive" `Quick
            test_engines_equivalent;
          Alcotest.test_case "mid-run invalidate/flush/decode-flush" `Quick
            test_engines_midrun_ops;
          Alcotest.test_case "every registry workload" `Quick
            test_engines_registry;
          Alcotest.test_case "unavailable surfaces cleanly" `Quick
            test_engines_unavailable;
          Alcotest.test_case "detects seeded divergence" `Quick
            (mutation_case "engines: register skew on the decoded side");
        ] );
    ]
