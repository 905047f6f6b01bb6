(* Golden tests of the CLI's fault/audit surface: exit codes and the
   transport/recovery rows printed by `softcache run`. The binary is a
   dune dependency, available next to the test as ../bin/. *)

let exe = Filename.concat (Filename.concat ".." "bin") "softcache_cli.exe"

let run_cli args =
  let out = Filename.temp_file "softcache_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
         (String.concat " " args) (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains text needle =
  let n = String.length needle and h = String.length text in
  let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
  go 0

let expect_contains text what needle =
  Alcotest.(check bool)
    (Printf.sprintf "output mentions %s (%S)" what needle)
    true (contains text needle)

let test_run_clean () =
  let code, out = run_cli [ "run"; "sensor_modes"; "--tcache"; "2048" ] in
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "match" "outputs match";
  expect_contains out "match value" ": true";
  (* fault-free runs must not grow fault rows *)
  Alcotest.(check bool) "no fault rows" false (contains out "faults injected")

let test_run_faults_audit () =
  let code, out =
    run_cli
      [
        "run"; "sensor_modes"; "--tcache"; "2048"; "--net"; "ethernet";
        "--faults"; "seed=7,drop=0.1,corrupt=0.05,dup=0.05,spike=0.1";
        "--audit";
      ]
  in
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "status row" "status";
  expect_contains out "status value" "halted";
  expect_contains out "fault row" "faults injected";
  expect_contains out "recovery row" "recovery";
  expect_contains out "retry detail" "retries (max";
  expect_contains out "recovered row" "chunks recovered";
  expect_contains out "unavailable row" "chunks unavailable";
  expect_contains out "audit row" "audits passed";
  expect_contains out "outputs" "outputs match"

let test_run_dead_link_exit_3 () =
  let code, out =
    run_cli
      [
        "run"; "sensor_modes"; "--tcache"; "2048";
        "--faults"; "seed=1,drop=1.0";
      ]
  in
  Alcotest.(check int) "exit code" 3 code;
  expect_contains out "status" "unavailable"

(* A tcache too small for the workload is a sizing error with its own
   exit code and a one-line diagnosis, never an uncaught exception. *)
let test_too_small_exit_4 args diagnosis () =
  let code, out = run_cli args in
  Alcotest.(check int) "exit code" 4 code;
  expect_contains out "diagnosis" diagnosis;
  Alcotest.(check bool) "no uncaught exception" false
    (contains out "uncaught exception")

let test_run_traced () =
  (* --trace writes a schema-shaped JSONL file, prints the attribution
     summary, and the traced run still exits clean *)
  let out_file = Filename.temp_file "softcache_trace" ".jsonl" in
  let code, out =
    run_cli
      [
        "run"; "sensor_modes"; "--tcache"; "2048"; "--trace"; out_file;
        "--trace-limit"; "50000";
      ]
  in
  let trace_text = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove out_file;
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "trace row" "trace";
  expect_contains out "attribution rows" "execute";
  expect_contains out "conservation marker" "(conserved)";
  expect_contains out "ring occupancy" "ring capacity";
  Alcotest.(check bool) "file is non-empty jsonl" true
    (String.length trace_text > 0 && trace_text.[0] = '{');
  expect_contains trace_text "cycle stamps" "\"cycle\":";
  expect_contains trace_text "event types" "\"type\":\"cc_translated\""

let test_run_traced_chrome () =
  let out_file = Filename.temp_file "softcache_trace" ".json" in
  let code, _ =
    run_cli
      [
        "run"; "sensor_modes"; "--tcache"; "2048"; "--trace"; out_file;
        "--trace-format"; "chrome";
      ]
  in
  let trace_text = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove out_file;
  Alcotest.(check int) "exit code" 0 code;
  expect_contains trace_text "chrome envelope" "\"traceEvents\"";
  expect_contains trace_text "thread metadata" "\"thread_name\"";
  expect_contains trace_text "residency spans" "\"residency\""

let test_trace_is_invisible_in_output () =
  (* the cycle counts printed with and without --trace must be
     identical — the user-facing face of the zero-perturbation rule *)
  let file = Filename.temp_file "softcache_trace" ".jsonl" in
  let _, plain = run_cli [ "run"; "sensor_modes"; "--tcache"; "2048" ] in
  let _, traced =
    run_cli [ "run"; "sensor_modes"; "--tcache"; "2048"; "--trace"; file ]
  in
  Sys.remove file;
  let cycles_line text =
    List.find_opt
      (fun l -> contains l "softcache cycles")
      (String.split_on_char '\n' text)
  in
  match (cycles_line plain, cycles_line traced) with
  | Some a, Some b -> Alcotest.(check string) "identical cycle row" a b
  | _ -> Alcotest.fail "missing softcache cycles row"

let test_bad_trace_args_rejected () =
  let code, _ =
    run_cli [ "run"; "sensor_modes"; "--trace-format"; "xml" ]
  in
  Alcotest.(check bool) "unknown format rejected" true (code <> 0)

(* a zero ring capacity is a usage error (cmdliner's 124), not an
   uncaught exception; both traced commands share the flag *)
let test_trace_limit_zero_rejected cmd () =
  let out_file = Filename.temp_file "softcache_limit" ".jsonl" in
  let code, out =
    run_cli [ cmd; "sensor_modes"; "--trace"; out_file; "--trace-limit"; "0" ]
  in
  Sys.remove out_file;
  Alcotest.(check int) "exit code" 124 code;
  expect_contains out "diagnosis" "expected a positive integer"

let test_dcache_traced () =
  let out_file = Filename.temp_file "softcache_dtrace" ".jsonl" in
  let code, out = run_cli [ "dcache"; "cjpeg"; "--trace"; out_file ] in
  let trace_text = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove out_file;
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "attribution row" "dcache overhead";
  expect_contains out "conservation marker" "(conserved)";
  Alcotest.(check bool) "file is non-empty" true (String.length trace_text > 0)

let test_eviction_flag_accepted () =
  (* every name in the policy registry is a valid --eviction value and
     shows up in the report's policy row; the list is intentionally a
     literal so a registry rename breaks a golden test *)
  List.iter
    (fun name ->
      let code, out =
        run_cli
          [ "run"; "sensor_modes"; "--tcache"; "2048"; "--eviction"; name ]
      in
      Alcotest.(check int) (name ^ " exit code") 0 code;
      expect_contains out "policy row" "replacement policy";
      expect_contains out (name ^ " policy name") name;
      expect_contains out "outputs" "outputs match")
    [ "fifo"; "flush"; "lru"; "rrip" ]

let test_eviction_flag_rejected () =
  let code, out =
    run_cli [ "run"; "sensor_modes"; "--eviction"; "clock" ]
  in
  Alcotest.(check bool) "unknown policy rejected" true (code <> 0);
  (* cmdliner's enum conv names the offending value and the valid set *)
  expect_contains out "offending value" "clock";
  expect_contains out "valid set mentions fifo" "fifo";
  expect_contains out "valid set mentions rrip" "rrip"

let test_bad_faults_spec_rejected () =
  let code, _ =
    run_cli [ "run"; "sensor_modes"; "--faults"; "drop=eleven" ]
  in
  Alcotest.(check bool) "cmdliner rejects the spec" true (code <> 0);
  let code2, _ =
    run_cli [ "run"; "sensor_modes"; "--faults"; "warp=0.5" ]
  in
  Alcotest.(check bool) "unknown key rejected" true (code2 <> 0)

(* ------------------------------------------------------------------ *)
(* sizing subcommand: golden rows, determinism, argument surface *)

let test_sizing_golden () =
  let code, out = run_cli [ "sizing"; "compress95" ] in
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "chunk walk row" "chunks walked";
  expect_contains out "dominant set row" "dominant chunks";
  expect_contains out "dominant share" "(90% of samples)";
  expect_contains out "source footprint row" "dominant source";
  expect_contains out "rewritten footprint row" "dominant rewritten";
  expect_contains out "prediction row" "predicted tcache need";
  expect_contains out "knee row" "predicted knee";
  expect_contains out "trrip coupling row" "trrip prior primed below";
  expect_contains out "hot chunk table" "hottest chunks";
  expect_contains out "table columns" "rewritten"

let test_sizing_deterministic () =
  (* the analytic model is a pure function of the image and profile:
     two invocations must emit byte-identical reports *)
  let _, a = run_cli [ "sizing"; "compress95" ] in
  let _, b = run_cli [ "sizing"; "compress95" ] in
  Alcotest.(check string) "byte-identical output" a b

let test_sizing_options () =
  let code, out =
    run_cli
      [ "sizing"; "cjpeg"; "--chunking"; "proc"; "--threshold"; "0.8";
        "--headroom"; "1.2" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "dominant share follows --threshold" "(80% of samples)"

let test_sizing_unknown_workload () =
  let code, out = run_cli [ "sizing"; "no_such_app" ] in
  Alcotest.(check int) "exit code" 1 code;
  expect_contains out "offending name" "no_such_app";
  expect_contains out "suggests the registry" "compress95"

(* ------------------------------------------------------------------ *)
(* sharded multi-hart run + heterogeneous auto-sized fleet *)

let test_run_harts () =
  let code, out =
    run_cli
      [ "run"; "sensor_modes"; "--tcache"; "2048"; "--harts"; "2";
        "--shards"; "2"; "--audit" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "hart row" "2 over 2 tcache shard(s)";
  expect_contains out "makespan row" "makespan";
  expect_contains out "outputs row" "outputs match (all harts)";
  expect_contains out "outputs value" ": true";
  expect_contains out "shard audit row" "shard audit";
  expect_contains out "shard audit value" "clean"

let test_fleet_workloads_autosize () =
  let code, out =
    run_cli
      [ "fleet"; "sensor_modes"; "--workloads"; "sensor_modes,adpcm_encode";
        "--auto-size"; "--clients"; "2"; "--tcache"; "2048";
        "--fuel"; "100000"; "--audit" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "per-client workloads row" "sensor_modes;adpcm_encode";
  expect_contains out "prediction row" "predicted_bytes";
  expect_contains out "audit row" "audit";
  expect_contains out "audit verdict" "clean"

(* fleet exit status: every halted client is checked against a native
   run of its image, and a dead link exits 3 as solo [run] does *)
let test_fleet_outputs_checked () =
  let code, out =
    run_cli
      [ "fleet"; "sensor_modes"; "--workloads"; "sensor_modes,adpcm_encode";
        "--clients"; "2"; "--tcache"; "2048"; "--fuel"; "10000000" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  expect_contains out "outputs row" "outputs match native";
  expect_contains out "outputs verdict" ": true (2 of 2 clients halted)"

let test_fleet_dead_link_exit_3 () =
  let code, out =
    run_cli
      [ "fleet"; "sensor_modes"; "--clients"; "2";
        "--faults"; "seed=1,drop=1.0"; "--fuel"; "100000" ]
  in
  Alcotest.(check int) "exit code" 3 code;
  expect_contains out "outcome" "unavailable"

let test_fleet_unknown_workload_rejected () =
  let code, out =
    run_cli
      [ "fleet"; "sensor_modes"; "--workloads"; "sensor_modes,bogus" ]
  in
  Alcotest.(check int) "exit code" 1 code;
  expect_contains out "offending name" "bogus"

let () =
  Alcotest.run "cli"
    [
      ( "run",
        [
          Alcotest.test_case "clean run, no fault rows" `Quick test_run_clean;
          Alcotest.test_case "faults + audit rows" `Quick
            test_run_faults_audit;
          Alcotest.test_case "dead link exits 3" `Quick
            test_run_dead_link_exit_3;
          Alcotest.test_case "chunk too large exits 4" `Quick
            (test_too_small_exit_4
               [ "run"; "mpeg2enc"; "--tcache"; "256" ]
               "the chunk at 0x3c7c does not fit the 256-byte tcache");
          Alcotest.test_case "--harts crowded tcache exits 4" `Quick
            (test_too_small_exit_4
               [ "run"; "mpeg2enc"; "--tcache"; "4096"; "--harts"; "4";
                 "--shards"; "2"; "--net"; "ethernet" ]
               "crowd out every placement in the 4096-byte tcache (2 \
                shards)");
          Alcotest.test_case "bad --faults rejected" `Quick
            test_bad_faults_spec_rejected;
          Alcotest.test_case "--eviction accepts the registry" `Quick
            test_eviction_flag_accepted;
          Alcotest.test_case "--eviction rejects unknown policies" `Quick
            test_eviction_flag_rejected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "--trace writes jsonl + summary" `Quick
            test_run_traced;
          Alcotest.test_case "--trace-format chrome" `Quick
            test_run_traced_chrome;
          Alcotest.test_case "cycle counts unchanged by --trace" `Quick
            test_trace_is_invisible_in_output;
          Alcotest.test_case "bad --trace-format rejected" `Quick
            test_bad_trace_args_rejected;
          Alcotest.test_case "dcache --trace" `Quick test_dcache_traced;
          Alcotest.test_case "run --trace-limit 0 rejected" `Quick
            (test_trace_limit_zero_rejected "run");
          Alcotest.test_case "dcache --trace-limit 0 rejected" `Quick
            (test_trace_limit_zero_rejected "dcache");
        ] );
      ( "sizing",
        [
          Alcotest.test_case "golden report rows" `Quick test_sizing_golden;
          Alcotest.test_case "deterministic output" `Quick
            test_sizing_deterministic;
          Alcotest.test_case "threshold/headroom/chunking flags" `Quick
            test_sizing_options;
          Alcotest.test_case "unknown workload rejected" `Quick
            test_sizing_unknown_workload;
        ] );
      ( "shard",
        [
          Alcotest.test_case "--harts multi-hart run" `Quick test_run_harts;
          Alcotest.test_case "fleet --workloads --auto-size" `Quick
            test_fleet_workloads_autosize;
          Alcotest.test_case "fleet unknown workload rejected" `Quick
            test_fleet_unknown_workload_rejected;
          Alcotest.test_case "fleet outputs checked vs native" `Quick
            test_fleet_outputs_checked;
          Alcotest.test_case "fleet dead link exits 3" `Quick
            test_fleet_dead_link_exit_3;
          Alcotest.test_case "fleet chunk too large exits 4" `Quick
            (test_too_small_exit_4
               [ "fleet"; "mpeg2enc"; "--tcache"; "256"; "--clients"; "2" ]
               "the chunk at 0x3c7c does not fit the 256-byte tcache");
        ] );
    ]
