(* Content-addressed cache + verification daemon tests (DESIGN.md §15):
   FNV golden vectors, the QCheck-pinned canonicalization invariant
   (equal unit bytes => bit-identical unit simulation), LRU/byte-bound/
   persistence behavior of the store, every memo layer (characterize
   incremental + whole-result, verdict, segments, tomography), the
   cache-transparency oracle with a persistence reload, MQ020 cone-hash
   lint, and the JSON-RPC protocol (Jsonx roundtrips, [Server.handle_line]
   unit tests, a golden verify transcript, and one end-to-end socket
   smoke with the daemon on a second domain). *)

open Testkit
open Morphcore

let count = Config.count ()
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Config.rand ()) t

let temp_dir () =
  let d = Filename.temp_file "morphqpv-cache" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ------------------------------ FNV ----------------------------------- *)

(* golden vectors from the reference FNV-1a specification *)
let test_fnv_golden () =
  Alcotest.(check int64)
    "empty" 0xcbf29ce484222325L
    (Cache.Fnv.fnv1a64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Cache.Fnv.fnv1a64 "a");
  Alcotest.(check int)
    "hex digest width" 32
    (String.length (Cache.Fnv.hex "morphqpv"));
  Alcotest.(check bool)
    "lanes separate near-collisions" false
    (Cache.Fnv.hex "a" = Cache.Fnv.hex "b");
  Alcotest.(check bool)
    "seed non-negative" true
    (Cache.Fnv.seed_of_string "anything" >= 0)

(* ------------------------------ Canon ---------------------------------- *)

let ghz3 =
  Circuit.(empty 3 |> h 0 |> cx 0 1 |> cx 1 2 |> tracepoint 1 [ 0; 1; 2 ])

let test_canon_normalization () =
  let with_rz th =
    Circuit.(empty 1 |> rz th 0 |> tracepoint 1 [ 0 ]) |> Cache.Canon.canonical_bytes
  in
  Alcotest.(check string) "-0.0 folds to 0.0" (with_rz 0.0) (with_rz (-0.0));
  Alcotest.(check bool)
    "distinct angles distinct bytes" false
    (with_rz 0.5 = with_rz 0.25);
  let with_barrier =
    Circuit.(
      empty 3 |> h 0 |> cx 0 1 |> barrier [ 0; 1 ] |> cx 1 2
      |> tracepoint 1 [ 0; 1; 2 ])
  in
  Alcotest.(check string)
    "barriers excluded from canonical bytes"
    (Cache.Canon.canonical_bytes ghz3)
    (Cache.Canon.canonical_bytes with_barrier);
  Alcotest.(check bool)
    "barriers kept in exact bytes" false
    (Cache.Canon.exact_bytes ghz3 = Cache.Canon.exact_bytes with_barrier);
  let with_id id =
    Circuit.(empty 2 |> h 0 |> cx 0 1 |> tracepoint id [ 0; 1 ])
  in
  Alcotest.(check string)
    "tracepoint ids excluded from canonical bytes"
    (Cache.Canon.canonical_bytes (with_id 1))
    (Cache.Canon.canonical_bytes (with_id 9));
  Alcotest.(check bool)
    "tracepoint ids kept in exact bytes" false
    (Cache.Canon.exact_bytes (with_id 1) = Cache.Canon.exact_bytes (with_id 9))

(* rebuild a circuit with qubit q renamed to perm.(q) *)
let permute_qubits perm c =
  List.fold_left
    (fun acc i -> Circuit.add (Circuit.Instr.remap (fun q -> perm.(q)) i) acc)
    (Circuit.empty ~clbits:(Circuit.num_clbits c) (Circuit.num_qubits c))
    (Circuit.instrs c)

(* the pinned cache invariant: a qubit relabeling leaves every cone's
   canonical unit bytes unchanged, and simulating the relabeled unit from
   the same embedded input replays bit-identical tracepoint states *)
let prop_units_relabeling_invariant =
  QCheck.Test.make ~name:"equal unit bytes => identical unit simulation"
    ~count (Gen.pure ()) (fun sketch ->
      let c = Gen.build sketch in
      let n = Circuit.num_qubits c in
      let perm = Array.init n (fun q -> n - 1 - q) in
      let c' = permute_qubits perm c in
      let inputs = List.init n Fun.id in
      let inputs' = List.map (fun q -> perm.(q)) inputs in
      let simulate (u : Cache.Canon.unit_circuit) id =
        let st = Qstate.Statevec.zero u.Cache.Canon.width in
        (* basis input 0b01 pattern over the input qubits, via the embed *)
        let idx = ref 0 in
        Array.iteri
          (fun j uq -> if j mod 2 = 0 then idx := !idx lor (1 lsl uq))
          u.Cache.Canon.embed;
        Qstate.Statevec.set_amplitude st !idx Linalg.Cx.one;
        let out = Sim.Engine.run ~initial:st u.Cache.Canon.circuit in
        List.assoc id out.Sim.Engine.traces
      in
      List.for_all2
        (fun (cone : Analysis.Lightcone.cone)
             (cone' : Analysis.Lightcone.cone) ->
          let u = Cache.Canon.cone_unit c ~input_qubits:inputs cone in
          let u' = Cache.Canon.cone_unit c' ~input_qubits:inputs' cone' in
          u.Cache.Canon.bytes = u'.Cache.Canon.bytes
          && simulate u cone.Analysis.Lightcone.id
             = simulate u' cone'.Analysis.Lightcone.id)
        (Analysis.Lightcone.cones c)
        (Analysis.Lightcone.cones c'))

let prop_canonical_relabeling_invariant =
  QCheck.Test.make ~name:"canonical_bytes invariant under qubit relabeling"
    ~count (Gen.program ()) (fun sketch ->
      let c = Gen.build sketch in
      let n = Circuit.num_qubits c in
      let perm = Array.init n (fun q -> n - 1 - q) in
      Cache.Canon.canonical_bytes c
      = Cache.Canon.canonical_bytes (permute_qubits perm c))

(* ------------------------------ Store ---------------------------------- *)

let test_store_lru () =
  let cache = Cache.create ~max_bytes:4096 () in
  let payload = String.make 512 'x' in
  for i = 0 to 31 do
    Cache.store cache ~ns:"t" (string_of_int i) payload
  done;
  let s = Cache.stats cache in
  Alcotest.(check bool) "evictions happened" true (s.Cache.evictions > 0);
  Alcotest.(check bool) "byte budget held" true (s.Cache.bytes <= 4096);
  Alcotest.(check (option string))
    "most recent entry survives" (Some payload)
    (Cache.find cache ~ns:"t" "31");
  Alcotest.(check (option string))
    "cold end evicted" None
    (Cache.find cache ~ns:"t" "0");
  let s = Cache.stats cache in
  Alcotest.(check int) "stores counted" 32 s.Cache.stores;
  Alcotest.(check int) "hit counted" 1 s.Cache.hits;
  Alcotest.(check int) "miss counted" 1 s.Cache.misses

let test_store_namespaces () =
  let cache = Cache.create () in
  Cache.store cache ~ns:"a" "k" "va";
  Cache.store cache ~ns:"b" "k" "vb";
  Alcotest.(check (option string))
    "namespaces isolate keys" (Some "va")
    (Cache.find cache ~ns:"a" "k");
  Alcotest.(check (option string)) "" (Some "vb") (Cache.find cache ~ns:"b" "k")

(* each cache setting resolves once, an argument over its environment
   variable: serve's --cache-mb and --cache-dir hold when MORPHQPV_CACHE
   or MORPHQPV_CACHE_DIR also turn the cache on. [with_env] restores an
   unset variable as empty, which [of_env] reads as unset. *)
let test_store_settings () =
  let fill cache =
    for i = 0 to 31 do
      Cache.store cache ~ns:"t" (string_of_int i) (String.make 512 'x')
    done;
    (Cache.stats cache).Cache.evictions
  in
  let with_env vars f =
    let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) vars in
    List.iter (fun (k, v) -> Unix.putenv k v) vars;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (k, v) -> Unix.putenv k (Option.value ~default:"" v))
          saved)
      f
  in
  let get = function Some c -> c | None -> Alcotest.fail "no cache" in
  let env_dir = temp_dir () and flag_dir = temp_dir () in
  Fun.protect ~finally:(fun () ->
      remove_tree env_dir;
      remove_tree flag_dir)
  @@ fun () ->
  with_env
    [ ("MORPHQPV_CACHE", "1"); ("MORPHQPV_CACHE_MB", "1");
      ("MORPHQPV_CACHE_DIR", env_dir) ]
    (fun () ->
      Alcotest.(check bool)
        "the flag's 4 KiB budget evicts" true
        (fill (get (Cache.of_env ~max_bytes:4096 ())) > 0);
      Alcotest.(check int)
        "the environment's 1 MiB budget holds 32 entries" 0
        (fill (get (Cache.of_env ())));
      ignore (fill (get (Cache.of_env ~dir:flag_dir ())));
      Alcotest.(check bool)
        "the flag's directory is written" true
        (Sys.file_exists (Filename.concat flag_dir "t")));
  with_env
    [ ("MORPHQPV_CACHE", "0"); ("MORPHQPV_CACHE_MB", "1");
      ("MORPHQPV_CACHE_DIR", "") ]
    (fun () ->
      Alcotest.(check bool)
        "an empty directory variable is unset" true
        (Cache.of_env () = None);
      Alcotest.(check bool)
        "enable turns it on" true
        (Cache.of_env ~enable:true () <> None))

let test_store_persistence () =
  let dir = temp_dir () in
  let cache = Cache.create ~dir () in
  Cache.store_value cache ~ns:"t" "key" [| 1.5; 2.5 |];
  Cache.drop_memory cache;
  Alcotest.(check bool)
    "disk tier survives drop_memory" true
    (Cache.find_value cache ~ns:"t" "key" = Some [| 1.5; 2.5 |]);
  (* a fresh store over the same directory sees the entry *)
  let reopened = Cache.create ~dir () in
  Alcotest.(check bool)
    "fresh store reads persisted entry" true
    (Cache.find_value reopened ~ns:"t" "key" = Some [| 1.5; 2.5 |]);
  (* corrupt every entry file (dir/ns/<hex>): reads must degrade to
     misses, not exceptions *)
  Array.iter
    (fun ns ->
      let nsdir = Filename.concat dir ns in
      if Sys.is_directory nsdir then
        Array.iter
          (fun f ->
            Out_channel.with_open_bin (Filename.concat nsdir f) (fun oc ->
                output_string oc "garbage"))
          (Sys.readdir nsdir))
    (Sys.readdir dir);
  let corrupted = Cache.create ~dir () in
  Alcotest.(check bool)
    "corrupt files read as misses" true
    (Cache.find_value corrupted ~ns:"t" "key" = (None : float array option))

let test_store_memo () =
  let cache = Cache.create () in
  let calls = ref 0 in
  let compute v () =
    incr calls;
    v
  in
  Alcotest.(check (array (float 0.)))
    "miss computes" [| 1.5 |]
    (Cache.memo cache ~ns:"t" "k" (compute [| 1.5 |]));
  Alcotest.(check (array (float 0.)))
    "hit returns the stored value" [| 1.5 |]
    (Cache.memo cache ~ns:"t" "k" (compute [| 9. |]));
  Alcotest.(check int) "computed once" 1 !calls;
  let s = Cache.stats cache in
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1)
    (s.Cache.misses, s.Cache.hits)

let test_store_memo_invalid () =
  let cache = Cache.create () in
  Cache.store_value cache ~ns:"t" "k" [| 1.5 |];
  let valid arr = Array.length arr = 2 in
  Alcotest.(check (array (float 0.)))
    "rejected value recomputed" [| 2.5; 3.5 |]
    (Cache.memo cache ~ns:"t" ~valid "k" (fun () -> [| 2.5; 3.5 |]));
  Alcotest.(check (array (float 0.)))
    "recomputed value replaced the stored one" [| 2.5; 3.5 |]
    (Cache.memo cache ~ns:"t" ~valid "k" (fun () ->
         Alcotest.fail "valid stored value recomputed"))

let test_store_memo_undecodable () =
  let cache = Cache.create () in
  Cache.store cache ~ns:"t" "k" "garbage";
  Alcotest.(check (array (float 0.)))
    "undecodable entry recomputed" [| 4.5 |]
    (Cache.memo cache ~ns:"t" "k" (fun () -> [| 4.5 |]));
  Alcotest.(check bool)
    "recomputed value stored" true
    (Cache.find_value cache ~ns:"t" "k" = Some [| 4.5 |])

(* --------------------------- memo layers -------------------------------- *)

(* run [f] with obs enabled against fresh rings/registry, restoring the
   caller's setting — spans and the metrics/trace RPCs only have content
   under obs *)
let with_obs_enabled f =
  let was = Obs.enabled () in
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.configure ~enabled:true;
  Fun.protect
    ~finally:(fun () ->
      Obs.configure ~enabled:was;
      Obs.Span.reset ();
      Obs.Metrics.reset ())
    f


let three_cone_circuit theta =
  Circuit.(
    empty 6 |> h 0 |> cx 0 1 |> rz theta 1
    |> tracepoint 1 [ 0; 1 ]
    |> h 2 |> cx 2 3 |> t_gate 3
    |> tracepoint 2 [ 2; 3 ]
    |> h 4 |> cx 4 5
    |> tracepoint 3 [ 4; 5 ])

let traces_of (ch : Characterize.t) =
  Array.map (fun s -> s.Characterize.traces) ch.Characterize.samples

let characterize ~cache theta =
  Characterize.run ~cache
    ~rng:(Stats.Rng.make 11)
    ~mode:(Characterize.Tomography { shots = 24; project = true })
    (Program.make (three_cone_circuit theta))
    ~count:3

(* the headline acceptance behavior: a warm re-verification performs zero
   simulation and zero tomography shots; an edited program re-characterizes
   only the tracepoint whose cone changed *)
let test_incremental_warm_and_edited () =
  let cache = Cache.create () in
  let cold = characterize ~cache 0.7 in
  let s_cold = Cache.stats cache in
  Alcotest.(check int) "cold: one miss per cone" 3 s_cold.Cache.misses;
  Alcotest.(check bool)
    "cold did quantum work" true
    (cold.Characterize.cost.Sim.Cost.executions > 0
    && cold.Characterize.cost.Sim.Cost.shots > 0);
  let warm = characterize ~cache 0.7 in
  let s_warm = Cache.stats cache in
  Alcotest.(check int) "warm: no new misses" s_cold.Cache.misses s_warm.Cache.misses;
  Alcotest.(check int) "warm: one hit per cone" (s_cold.Cache.hits + 3) s_warm.Cache.hits;
  Alcotest.(check int)
    "warm: zero executions" 0 warm.Characterize.cost.Sim.Cost.executions;
  Alcotest.(check int)
    "warm: zero shots" 0 warm.Characterize.cost.Sim.Cost.shots;
  Alcotest.(check bool)
    "warm traces bit-identical" true
    (traces_of cold = traces_of warm);
  let edited = characterize ~cache 1.3 in
  let s_edited = Cache.stats cache in
  Alcotest.(check int)
    "edited: exactly the changed cone misses" (s_warm.Cache.misses + 1)
    s_edited.Cache.misses;
  Alcotest.(check int)
    "edited: the two unchanged cones hit" (s_warm.Cache.hits + 2)
    s_edited.Cache.hits;
  Alcotest.(check int)
    "edited: a third of the cold executions"
    (cold.Characterize.cost.Sim.Cost.executions / 3)
    edited.Characterize.cost.Sim.Cost.executions;
  (* the unchanged cones' traces are the cached (cold) values verbatim *)
  Array.iteri
    (fun i traces ->
      Alcotest.(check bool)
        "unchanged cone trace reused" true
        (List.assoc 2 traces = List.assoc 2 (traces_of cold).(i)))
    (traces_of edited)

(* stochastic programs fall back to the whole-result memo *)
let test_whole_result_memo () =
  let c =
    Circuit.(
      empty ~clbits:1 2 |> h 0 |> cx 0 1 |> measure 0 0
      |> tracepoint 1 [ 1 ])
  in
  let cache = Cache.create () in
  let run () =
    Characterize.run ~cache
      ~rng:(Stats.Rng.make 4)
      ~trajectories:3 (Program.make c) ~count:3
  in
  let cold = run () in
  let warm = run () in
  Alcotest.(check bool)
    "whole-result hit recorded" true
    ((Cache.stats cache).Cache.hits > 0);
  Alcotest.(check int)
    "warm: zero executions" 0 warm.Characterize.cost.Sim.Cost.executions;
  Alcotest.(check bool)
    "warm samples identical" true
    (traces_of cold = traces_of warm)

(* a cold whole-result miss opens [characterize.run] once, so span
   tables and daemon traces count the layer once *)
let test_one_characterize_span () =
  let c =
    Circuit.(
      empty ~clbits:1 2 |> h 0 |> cx 0 1 |> measure 0 0
      |> tracepoint 1 [ 1 ])
  in
  with_obs_enabled (fun () ->
      let since = Obs.Span.mark () in
      ignore
        (Characterize.run ~cache:(Cache.create ()) ~trajectories:3
           (Program.make c) ~count:3);
      let opened =
        List.filter
          (fun (ev : Obs.Span.event) ->
            ev.name = "characterize.run" && ev.ph = Obs.Span.B)
          (Obs.Span.events ~since ())
      in
      Alcotest.(check int) "characterize.run spans" 1 (List.length opened))

let test_verdict_memo () =
  let cache = Cache.create () in
  let validate () =
    let ch = characterize ~cache:(Cache.create ()) 0.7 in
    let approx = Approx.of_characterization ch in
    let assertion =
      Assertion.make ~assumes:[]
        ~guarantees:[ Predicate.Purity_ge (3, 0.2) ]
        ()
    in
    let options =
      { Verify.default_options with budget = 100; restarts = 1 }
    in
    Verify.validate ~options ~rng:(Stats.Rng.make 5) ~cache approx assertion
  in
  let cold = validate () in
  let before = Cache.stats cache in
  let warm = validate () in
  let after = Cache.stats cache in
  Alcotest.(check int) "verdict hit" (before.Cache.hits + 1) after.Cache.hits;
  Alcotest.(check bool) "verdicts identical" true (cold = warm)

(* cached and uncached paths agree bit-for-bit across cold/warm/eviction,
   and across a persistence reload *)
let prop_cache_transparent =
  QCheck.Test.make ~name:"cache transparency (programs)" ~count:(max 5 (count / 4))
    (Gen.program ()) (fun sketch ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> remove_tree dir)
        (fun () -> Oracle.cache_transparent ~dir sketch))

(* ------------------------------ lint ----------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_lint_cone_hashes () =
  let digests = Cache.Canon.cone_digests in
  let duplicated =
    Circuit.(
      empty 4 |> h 0 |> cx 0 1
      |> tracepoint 1 [ 0; 1 ]
      |> h 2 |> cx 2 3
      |> tracepoint 2 [ 2; 3 ]
      |> tracepoint 3 [ 2; 3 ])
  in
  let ds = Analysis.Lint.check_cones ~digests duplicated in
  Alcotest.(check int) "one MQ020 per tracepoint + one group" 4 (List.length ds);
  List.iter
    (fun d -> Alcotest.(check string) "code" "MQ020" d.Analysis.Lint.code)
    ds;
  Alcotest.(check bool)
    "duplicate group flagged" true
    (List.exists
       (fun d -> contains ~sub:"share identical cones" d.Analysis.Lint.message)
       ds);
  (* the hash is canonical, so the relabel-equivalent cone on qubits
     (2,3) joins the group too: all three tracepoints share one hash *)
  Alcotest.(check bool)
    "group names the sharing tracepoints" true
    (List.exists
       (fun d -> contains ~sub:"3 tracepoints" d.Analysis.Lint.message)
       ds);
  (* distinct cones: no group diagnostic *)
  let distinct = three_cone_circuit 0.7 in
  Alcotest.(check int)
    "no group for distinct cones" 3
    (List.length (Analysis.Lint.check_cones ~digests distinct))

(* ------------------------------ jsonx ----------------------------------- *)

module Jsonx = Server.Jsonx

let parse_exn s =
  match Jsonx.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "json parse: %s" e

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("id", Jsonx.int 3);
        ("s", Jsonx.Str "he\"llo\n\t");
        ("xs", Jsonx.List [ Jsonx.Num 1.5; Jsonx.Bool true; Jsonx.Null ]);
        ("nested", Jsonx.Obj [ ("pi", Jsonx.Num 3.141592653589793) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (parse_exn (Jsonx.to_string v) = v);
  Alcotest.(check bool)
    "garbage is an Error" true
    (match Jsonx.parse "{oops" with Error _ -> true | Ok _ -> false);
  Alcotest.(check string)
    "non-finite floats are null" "[null,null,null]"
    (Jsonx.to_string
       (Jsonx.List [ Jsonx.Num infinity; Jsonx.Num neg_infinity; Jsonx.Num nan ]));
  Alcotest.(check string)
    "integers print without exponent" "{\"n\":42}"
    (Jsonx.to_string (Jsonx.Obj [ ("n", Jsonx.int 42) ]))

(* ------------------------------ server ---------------------------------- *)

let drive state lines =
  let out = ref [] in
  let emit j = out := j :: !out in
  let last =
    List.fold_left (fun _ line -> Server.handle_line state ~emit line) `Continue lines
  in
  (List.rev !out, last)

let member_exn key j =
  match Jsonx.member key j with
  | Some v -> v
  | None -> Alcotest.failf "missing %S in %s" key (Jsonx.to_string j)

let bool_exn j =
  match Jsonx.to_bool j with
  | Some b -> b
  | None -> Alcotest.failf "not a bool: %s" (Jsonx.to_string j)

let int_exn j =
  match Jsonx.to_int j with
  | Some i -> i
  | None -> Alcotest.failf "not an int: %s" (Jsonx.to_string j)

let test_server_ping_and_errors () =
  let state = Server.make_state () in
  let out, k =
    drive state
      [
        {|{"id":1,"method":"ping"}|};
        "this is not json";
        {|{"id":2,"method":"no-such-method"}|};
      ]
  in
  Alcotest.(check bool) "continues" true (k = `Continue);
  match out with
  | [ pong; bad; unknown ] ->
      Alcotest.(check bool)
        "pong" true
        (Jsonx.member "result" pong <> None);
      Alcotest.(check bool) "bad json errors" true (Jsonx.member "error" bad <> None);
      Alcotest.(check bool)
        "unknown method errors" true
        (Jsonx.member "error" unknown <> None)
  | _ -> Alcotest.failf "expected 3 response lines, got %d" (List.length out)

let ghz_qasm =
  "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nT 1 q[0,1];\n"

let verify_req id =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("id", Jsonx.int id);
         ("method", Jsonx.Str "verify");
         ( "params",
           Jsonx.Obj
             [
               ("qasm", Jsonx.Str ghz_qasm);
               ("guarantee", Jsonx.Str "pure:1");
               ("count", Jsonx.int 4);
               ("seed", Jsonx.int 7);
             ] );
       ])

let test_server_verify_warm () =
  let state = Server.make_state ~cache:(Cache.create ()) () in
  let out, _ = drive state [ verify_req 1; verify_req 2 ] in
  let results =
    List.filter (fun j -> Jsonx.member "result" j <> None) out
  in
  match results with
  | [ first; second ] ->
      let verified j =
        member_exn "result" j |> member_exn "verified" |> bool_exn
      in
      Alcotest.(check bool) "GHZ verifies" true (verified first);
      Alcotest.(check bool) "still verifies warm" true (verified second);
      let cache_field name j =
        member_exn "result" j |> member_exn "cache" |> member_exn name
        |> int_exn
      in
      Alcotest.(check int) "cold request: no hits" 0 (cache_field "hits" first);
      Alcotest.(check bool)
        "warm request reports hits" true
        (cache_field "hits" second > 0);
      let executions j =
        member_exn "result" j |> member_exn "executions" |> int_exn
      in
      Alcotest.(check bool) "cold executed" true (executions first > 0);
      Alcotest.(check int) "warm executed nothing" 0 (executions second)
  | _ -> Alcotest.failf "expected 2 results, got %d" (List.length results)

(* an integral JSON number is decoded at any size, as the string of its
   digits: a seed of 1e17 (which JSON text writes as 1e+17) is accepted and
   runs as the seed "100000000000000000" does *)
let test_server_large_seed () =
  let req seed =
    Jsonx.to_string
      (Jsonx.Obj
         [
           ("id", Jsonx.int 1);
           ("method", Jsonx.Str "verify");
           ( "params",
             Jsonx.Obj
               [
                 ("qasm", Jsonx.Str ghz_qasm);
                 ("guarantee", Jsonx.Str "pure:1");
                 ("count", Jsonx.int 4);
                 ("seed", seed);
               ] );
         ])
  in
  let result seed =
    match List.rev (fst (drive (Server.make_state ()) [ req seed ])) with
    | last :: _ -> (
        match Jsonx.member "result" last with
        | Some r -> r
        | None -> Alcotest.failf "refused: %s" (Jsonx.to_string last))
    | [] -> Alcotest.fail "no response"
  in
  let as_number = result (Jsonx.Num 1e17)
  and as_digits = result (Jsonx.Str "100000000000000000") in
  List.iter
    (fun field ->
      Alcotest.(check string)
        field
        (Jsonx.to_string (member_exn field as_digits))
        (Jsonx.to_string (member_exn field as_number)))
    [ "verified"; "expects_ok"; "executions"; "shots" ]

(* translation validation over the protocol: a daemon started with
   [~certify:true] must emit a "certify" event (checker verdict +
   obligation counts) for every verify request — including the warm one,
   whose cached certified plan is re-checked — while a plain daemon only
   certifies requests that opt in with a certify:true param *)
let test_server_verify_certify () =
  let certify_events out =
    List.filter
      (fun j ->
        match Jsonx.member "event" j with
        | Some (Jsonx.Str "certify") -> true
        | _ -> false)
      out
  in
  let state = Server.make_state ~cache:(Cache.create ()) ~certify:true () in
  let out, _ = drive state [ verify_req 1; verify_req 2 ] in
  (match certify_events out with
  | [ _; _ ] as evs ->
      List.iter
        (fun j ->
          Alcotest.(check bool)
            "certified" true
            (member_exn "certified" j |> bool_exn);
          Alcotest.(check bool)
            "chain has steps" true
            (member_exn "steps" j |> int_exn > 0))
        evs
  | evs -> Alcotest.failf "expected 2 certify events, got %d" (List.length evs));
  Alcotest.(check bool)
    "still verifies under certification" true
    (List.exists
       (fun j ->
         match Jsonx.member "result" j with
         | Some r -> member_exn "verified" r |> bool_exn
         | None -> false)
       out);
  (* per-request opt-in on an uncertifying daemon *)
  let state = Server.make_state () in
  let with_certify =
    {|{"id":3,"method":"verify","params":{"qasm":|}
    ^ Jsonx.to_string (Jsonx.Str ghz_qasm)
    ^ {|,"guarantee":"pure:1","count":4,"seed":7,"certify":true}}|}
  in
  let out, _ = drive state [ verify_req 4; with_certify ] in
  Alcotest.(check int)
    "only the opted-in request is certified" 1
    (List.length (certify_events out))

(* request-id plumbing: a client-supplied top-level request_id is echoed
   on result AND error lines; requests without one get a generated req-N *)
let test_server_request_ids () =
  let state = Server.make_state () in
  let out, _ =
    drive state
      [
        {|{"id":1,"request_id":"cli-abc","method":"ping"}|};
        {|{"id":2,"method":"ping"}|};
        {|{"id":3,"request_id":"cli-err","method":"no-such-method"}|};
      ]
  in
  match out with
  | [ a; b; e ] ->
      Alcotest.(check (option string))
        "client id echoed" (Some "cli-abc")
        (Jsonx.mem_str "request_id" a);
      (match Jsonx.mem_str "request_id" b with
      | Some rid ->
          Alcotest.(check bool)
            "generated ids are req-N" true
            (String.length rid > 4 && String.sub rid 0 4 = "req-")
      | None -> Alcotest.fail "no request_id on the generated line");
      Alcotest.(check (option string))
        "error lines carry the id too" (Some "cli-err")
        (Jsonx.mem_str "request_id" e);
      Alcotest.(check bool)
        "and are errors" true
        (Jsonx.member "error" e <> None)
  | _ -> Alcotest.failf "expected 3 lines, got %d" (List.length out)

let test_server_metrics_rpc () =
  with_obs_enabled (fun () ->
      let state = Server.make_state ~cache:(Cache.create ()) () in
      let out, _ =
        drive state [ verify_req 1; {|{"id":2,"method":"metrics"}|} ]
      in
      let metrics_result =
        List.filter_map (fun j -> Jsonx.member "result" j) out
        |> List.filter_map (Jsonx.mem_str "prometheus")
      in
      match metrics_result with
      | [ text ] ->
          let has needle =
            Alcotest.(check bool)
              ("exposition has " ^ needle)
              true
              (let n = String.length needle in
               let rec go i =
                 i + n <= String.length text
                 && (String.sub text i n = needle || go (i + 1))
               in
               go 0)
          in
          has "# TYPE morphqpv_requests_total counter\n";
          has "morphqpv_requests_total{verb=\"verify\"} 1\n";
          has "# TYPE morphqpv_request_seconds histogram\n";
          has "morphqpv_request_seconds_count{verb=\"verify\"} 1\n";
          has "morphqpv_request_seconds_bucket{verb=\"verify\",le=\"+Inf\"} 1\n";
          has "# TYPE morphqpv_cache_hit_ratio gauge\n";
          has "morphqpv_obs_span_dropped_total 0\n"
      | l -> Alcotest.failf "expected 1 metrics result, got %d" (List.length l))

let test_server_trace_rpc () =
  with_obs_enabled (fun () ->
      let state = Server.make_state ~cache:(Cache.create ()) () in
      let tagged id rid meth params =
        Jsonx.to_string
          (Jsonx.Obj
             ([
                ("id", Jsonx.int id);
                ("request_id", Jsonx.Str rid);
                ("method", Jsonx.Str meth);
              ]
             @ params))
      in
      let verify =
        match parse_exn (verify_req 1) with
        | Jsonx.Obj kvs ->
            Jsonx.to_string
              (Jsonx.Obj (("request_id", Jsonx.Str "t-1") :: kvs))
        | _ -> assert false
      in
      let trace =
        tagged 2 "t-trace" "trace"
          [ ("params", Jsonx.Obj [ ("request_id", Jsonx.Str "t-1") ]) ]
      in
      let unknown =
        tagged 3 "t-miss" "trace"
          [ ("params", Jsonx.Obj [ ("request_id", Jsonx.Str "nope") ]) ]
      in
      let out, _ = drive state [ verify; trace; unknown ] in
      let by_id n =
        match
          List.filter
            (fun j ->
              Jsonx.mem_int "id" j = Some n
              && (Jsonx.member "result" j <> None
                 || Jsonx.member "error" j <> None))
            out
        with
        | [ j ] -> j
        | l ->
            Alcotest.failf "expected 1 response for id %d, got %d" n
              (List.length l)
      in
      match (by_id 2, by_id 3) with
      | traced, missing ->
          let r = member_exn "result" traced in
          Alcotest.(check (option string))
            "trace targets the verify request" (Some "t-1")
            (Jsonx.mem_str "request_id" r);
          Alcotest.(check (option string))
            "records the verb" (Some "verify")
            (Jsonx.mem_str "verb" r);
          let events =
            match Jsonx.mem_list "trace" r with
            | Some l -> l
            | None -> Alcotest.fail "no trace list"
          in
          Alcotest.(check bool) "has events" true (List.length events > 0);
          let root = List.hd events in
          Alcotest.(check (option string))
            "chrome phase" (Some "B") (Jsonx.mem_str "ph" root);
          Alcotest.(check (option string))
            "request id in args" (Some "t-1")
            (Option.bind (Jsonx.member "args" root) (Jsonx.mem_str "req"));
          Alcotest.(check bool)
            "unknown request id errors" true
            (Jsonx.member "error" missing <> None))

(* ----------------------- jsonx property tests --------------------------- *)

let gen_jsonx : Jsonx.t QCheck.Gen.t =
  let open QCheck.Gen in
  (* any finite double — dyadic rationals, moderate magnitudes and raw
     bit patterns (subnormals, extremes): the writer's %.0f/%.17g output
     parses back to the identical float *)
  let finite_float =
    oneof
      [
        map2
          (fun m e -> Float.ldexp (float_of_int m) e)
          (int_range (-1_000_000) 1_000_000)
          (int_range (-20) 20);
        float;
        map
          (fun bits ->
            let x = Int64.float_of_bits bits in
            if Float.is_finite x then x else Float.max_float)
          ui64;
      ]
  in
  let any_string = string_size ~gen:char (int_range 0 12) in
  let scalar =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map Jsonx.int (int_range (-1_000_000_000) 1_000_000_000);
        map (fun f -> Jsonx.Num f) finite_float;
        map (fun s -> Jsonx.Str s) any_string;
      ]
  in
  let rec value depth =
    if depth <= 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map
              (fun l -> Jsonx.List l)
              (list_size (int_range 0 4) (value (depth - 1))) );
          ( 1,
            map
              (fun kvs -> Jsonx.Obj kvs)
              (list_size (int_range 0 4) (pair any_string (value (depth - 1))))
          );
        ]
  in
  value 3

let prop_jsonx_roundtrip =
  QCheck.Test.make ~name:"jsonx: parse (to_string v) = v" ~count
    (QCheck.make ~print:Jsonx.to_string gen_jsonx)
    (fun v -> parse_exn (Jsonx.to_string v) = v)

(* the parser never raises, whatever the bytes: random strings (over all
   bytes and over JSON's own alphabet), and truncations and single-byte
   mutations of the writer's output all return Ok or Error *)
let prop_jsonx_parse_total =
  let total s = match Jsonx.parse s with Ok _ | Error _ -> true in
  let json_alphabet =
    QCheck.Gen.(
      string_size
        ~gen:(oneofl (List.of_seq (String.to_seq "{}[]\":,\\/u0aF9e.-+ tfnl")))
        (int_range 0 40))
  in
  QCheck.Test.make ~name:"jsonx: parse never raises" ~count
    QCheck.(
      quad
        (make ~print:Jsonx.to_string gen_jsonx)
        string (make ~print:Fun.id json_alphabet)
        (pair small_nat char))
    (fun (v, junk, near_json, (at, byte)) ->
      let s = Jsonx.to_string v in
      let n = String.length s in
      let mutated =
        String.mapi (fun i c -> if i = at mod n then byte else c) s
      in
      total junk && total near_json && total mutated
      && List.for_all total (List.init (n + 1) (fun k -> String.sub s 0 k)))

let test_jsonx_hostile () =
  let rejected what s =
    match Jsonx.parse s with
    | Error e ->
        Alcotest.(check bool) (what ^ ": error names an offset") true
          (contains ~sub:" at offset " e)
    | Ok v -> Alcotest.failf "%s parsed as %s" what (Jsonx.to_string v)
  in
  rejected "non-hex \\u digits" {|"\uZZZZ"|};
  rejected "underscored \\u digits" {|"\u0_4_1"|};
  rejected "signed \\u digits" {|"\u+041"|};
  rejected "truncated \\u escape" {|"\u04|};
  let nest k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool)
    "128 levels parse" true
    (Result.is_ok (Jsonx.parse (nest 128)));
  rejected "129 levels" (nest 129);
  rejected "a million open brackets" (String.make 1_000_000 '[');
  rejected "deep objects"
    (String.concat "" (List.init 1_000 (fun _ -> {|{"a":|})));
  Alcotest.(check bool) "upper-case hex" true
    (parse_exn {|"\u00E9\u00e9"|} = Jsonx.Str "\xc3\xa9\xc3\xa9");
  Alcotest.(check bool) "surrogate pair" true
    (parse_exn {|"\ud83d\ude00"|} = Jsonx.Str "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "unpaired high surrogate keeps the next escape" true
    (parse_exn {|"\ud800\u0041"|} = Jsonx.Str "\xed\xa0\x80A")

let test_jsonx_escaping () =
  Alcotest.(check string)
    "control chars and quotes escape" {|"a\"b\\c\nd\te\u0001\r"|}
    (Jsonx.to_string (Jsonx.Str "a\"b\\c\nd\te\x01\r"));
  Alcotest.(check bool)
    "escape forms parse back to raw bytes" true
    (parse_exn {|"A\n\"\\\/"|} = Jsonx.Str "A\n\"\\/");
  Alcotest.(check bool)
    "writer output is always one line" false
    (String.contains (Jsonx.to_string (Jsonx.Str "multi\nline")) '\n')

let prop_server_obs_transparent =
  QCheck.Test.make
    ~name:"server obs transparency (verify RPC, obs off = obs on)"
    ~count:(max 5 (count / 10))
    (Gen.program ())
    Oracle.server_obs_transparent

(* hostile lines a client can send: each gets exactly one error line,
   the connection carries on, and the next request is still served *)
let test_server_hostile_lines () =
  let state = Server.make_state () in
  List.iter
    (fun line ->
      let out, k = drive state [ line; {|{"id":7,"method":"ping"}|} ] in
      Alcotest.(check bool) "continues" true (k = `Continue);
      match out with
      | [ err; pong ] ->
          Alcotest.(check bool) "one error line" true
            (Jsonx.member "error" err <> None);
          Alcotest.(check (option int)) "ping still answered" (Some 7)
            (Jsonx.mem_int "id" pong);
          Alcotest.(check bool) "pong" true (Jsonx.member "result" pong <> None)
      | _ -> Alcotest.failf "expected 2 lines, got %d" (List.length out))
    [
      {|{"id":1,"method":"ping","params":{"x":"\uZZZZ"}}|};
      String.make 1_000_000 '[';
    ]

let test_server_shutdown () =
  let state = Server.make_state () in
  let out, k = drive state [ {|{"id":9,"method":"shutdown"}|} ] in
  Alcotest.(check bool) "stops" true (k = `Stop);
  Alcotest.(check bool)
    "acknowledges" true
    (List.exists (fun j -> Jsonx.member "result" j <> None) out)

(* end-to-end over a real Unix socket: run the daemon's accept loop on a
   second domain (no fork: the pool may already have spawned domains),
   ping it, verify a program twice (the second response must report cache
   hits), then stop it with SIGTERM as an operator would and check that it
   returned cleanly and unlinked its socket *)
let test_serve_socket_smoke () =
  let path = Filename.temp_file "morphqpv-serve" ".sock" in
  Sys.remove path;
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.serve ~cache:(Cache.create ())
          ~on_ready:(fun () -> Atomic.set ready true)
          (Server.Unix_path path))
  in
  let rec wait tries =
    if not (Atomic.get ready) then
      if tries = 0 then Alcotest.fail "daemon never started listening"
      else begin
        Unix.sleepf 0.01;
        wait (tries - 1)
      end
  in
  wait 1000;
  Fun.protect
    ~finally:(fun () ->
      (* the handler [serve] installed turns SIGTERM into a stop request;
         [Domain.join] re-raises anything the accept loop raised *)
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Domain.join daemon)
    (fun () ->
      let addr = Server.Unix_path path in
      let request line =
        match Server.Client.request addr (parse_exn line) with
        | Ok j -> j
        | Error e -> Alcotest.failf "client error: %s" e
      in
      let pong = request {|{"id":1,"method":"ping"}|} in
      Alcotest.(check bool) "pong" true (Jsonx.member "result" pong <> None);
      let first = request (verify_req 2) in
      let second = request (verify_req 3) in
      let hits j =
        member_exn "result" j |> member_exn "cache" |> member_exn "hits"
        |> int_exn
      in
      Alcotest.(check int) "cold over socket: no hits" 0 (hits first);
      Alcotest.(check bool) "warm over socket: hits" true (hits second > 0));
  Alcotest.(check bool) "socket path cleaned up" false (Sys.file_exists path)

(* ------------------------- verify golden --------------------------------- *)

(* [serve_golden.txt] is a transcript: each "> " line is a request fed to
   one daemon state (with an in-memory cache, so later requests see the
   earlier ones' entries), followed by the exact response lines it must
   produce. Wall-clock [seconds] fields are dropped; other numbers match
   to 1e-9 relative. *)
let rec drop_seconds = function
  | Jsonx.Obj kvs ->
      Jsonx.Obj
        (List.filter_map
           (fun (k, v) -> if k = "seconds" then None else Some (k, drop_seconds v))
           kvs)
  | Jsonx.List l -> Jsonx.List (List.map drop_seconds l)
  | v -> v

let rec golden_equal a b =
  match (a, b) with
  | Jsonx.Num x, Jsonx.Num y ->
      x = y || Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
  | Jsonx.List xs, Jsonx.List ys ->
      List.compare_lengths xs ys = 0 && List.for_all2 golden_equal xs ys
  | Jsonx.Obj xs, Jsonx.Obj ys ->
      List.compare_lengths xs ys = 0
      && List.for_all2 (fun (k, x) (l, y) -> k = l && golden_equal x y) xs ys
  | _ -> a = b

let test_server_verify_golden () =
  let is_request l = String.length l > 2 && String.sub l 0 2 = "> " in
  let lines =
    List.find Sys.file_exists [ "serve_golden.txt"; "test/serve_golden.txt" ]
    |> Fun.flip In_channel.with_open_text In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let state = Server.make_state ~cache:(Cache.create ()) () in
  let rec replay = function
    | [] -> ()
    | req :: rest ->
        let rec split acc = function
          | l :: ls when not (is_request l) -> split (l :: acc) ls
          | ls -> (List.rev acc, ls)
        in
        let expected, rest = split [] rest in
        let req = String.sub req 2 (String.length req - 2) in
        let got, _ = drive state [ req ] in
        (* compare what goes over the wire: non-finite numbers print as null *)
        let got =
          List.map (fun j -> parse_exn (Jsonx.to_string (drop_seconds j))) got
        in
        let show l = String.concat "\n" (List.map Jsonx.to_string l) in
        let expected = List.map parse_exn expected in
        if
          not
            (List.compare_lengths expected got = 0
            && List.for_all2 golden_equal expected got)
        then
          Alcotest.failf "request %s\nexpected:\n%s\ngot:\n%s" req
            (show expected) (show got);
        replay rest
  in
  replay lines

(* ------------------------------ spec ------------------------------------ *)

let examples_dir =
  List.find Sys.file_exists [ "../examples/qasm"; "examples/qasm" ]

let test_spec_grammar () =
  let c = ghz3 in
  let ok = function Ok p -> p | Error e -> Alcotest.failf "spec: %s" e in
  (match ok (Server.Spec.parse_predicate c 3 "pure:1") with
  | Predicate.Is_pure 1 -> ()
  | _ -> Alcotest.fail "pure:1");
  (match ok (Server.Spec.parse_predicate c 3 "purity-ge:1,0.5") with
  | Predicate.Purity_ge (1, b) -> Alcotest.(check (float 0.) "bound" 0.5 b)
  | _ -> Alcotest.fail "purity-ge");
  (match Server.Spec.parse_predicate c 3 "pure:not-a-number" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed predicate must not parse");
  (match ok (Server.Spec.parse_budget "seq:0.01,0.1,500") with
  | `Sequential s ->
      Alcotest.(check int) "max shots" 500 s.Stats.Tests.max_shots
  | _ -> Alcotest.fail "seq budget");
  (match Server.Spec.parse_budget "fixed:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative budget must not parse");
  (match ok (Server.Spec.parse_mode "tomo:32") with
  | Characterize.Tomography { shots = 32; project = true } -> ()
  | _ -> Alcotest.fail "tomo mode");
  (match ok (Server.Spec.parse_mode "exact") with
  | Characterize.Exact -> ()
  | _ -> Alcotest.fail "exact mode");
  List.iter
    (fun (name, want) ->
      Alcotest.(check bool) name true (ok (Server.Spec.parse_solver name) = want))
    [ ("qp", `Qp); ("sgd", `Adam); ("anneal", `Anneal); ("genetic", `Genetic) ];
  List.iter
    (fun name ->
      match Server.Spec.parse_solver name with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "solver %S must not parse" name)
    [ "sgdd"; "nonsense"; "QP"; "adam"; "" ];
  (* range checks against the program: each of these used to pass the
     parser and fail later with an uncaught exception *)
  let teleport = Qasm.parse_file (Filename.concat examples_dir "teleport.qasm") in
  let rejects c spec =
    match Server.Spec.parse_predicate c 3 spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must not parse" spec
  in
  rejects ghz3 "pure:9";
  rejects teleport "equals:0,1";
  rejects ghz3 "diag:1,99,0,1";
  rejects ghz3 "diag:1,-1,0,1";
  rejects ghz3 "expect-ge:1,ZZ,0";
  rejects ghz3 "expect-le:1,ZZZZ,0";
  rejects ghz3 "purity-ge:4,0.5";
  rejects ghz3 "equals-basis:1,8";
  (* a non-finite bound made every comparison false, so the objective
     never exceeded the tolerance and anything verified *)
  List.iter (rejects ghz3)
    [
      "diag:1,0,nan,1";
      "diag:0,0,nan,nan";
      "diag:1,0,0,inf";
      "diag:1,0,-inf,1";
      "expect-ge:1,ZZI,nan";
      "expect-le:1,ZZZ,inf";
      "purity-ge:1,1e999";
      "purity-ge:1,-nan";
    ];
  List.iter
    (fun (c, spec) -> ignore (ok (Server.Spec.parse_predicate c 3 spec)))
    [
      (teleport, "equals:1,2");
      (teleport, "equals:0,0");
      (ghz3, "diag:1,7,0,1");
      (ghz3, "diag:0,7,0,1");
      (ghz3, "expect-ge:1,ZZI,0");
      (ghz3, "equals-basis:1,7");
    ]

(* a spec the program cannot evaluate comes back as an error line that
   carries the parser's message, not a stringified exception *)
let test_server_spec_error () =
  let state = Server.make_state () in
  List.iter
    (fun spec ->
      let want =
        match Server.Spec.parse_predicate ghz3 3 spec with
        | Error e -> e
        | Ok _ -> Alcotest.failf "%s must not parse" spec
      in
      let line =
        Jsonx.to_string
          (Jsonx.Obj
             [
               ("id", Jsonx.int 1);
               ("method", Jsonx.Str "verify");
               ( "params",
                 Jsonx.Obj
                   [
                     ("qasm", Jsonx.Str (Qasm.to_string ghz3));
                     ("guarantee", Jsonx.Str spec);
                     ("count", Jsonx.int 4);
                   ] );
             ])
      in
      match List.rev (fst (drive state [ line ])) with
      | last :: _ ->
          Alcotest.(check (option string))
            spec (Some want) (Jsonx.mem_str "error" last)
      | [] -> Alcotest.fail "no response")
    [
      "pure:9";
      "diag:1,99,0,1";
      "expect-ge:1,ZZ,0";
      "diag:1,0,nan,1";
      "expect-le:1,ZZZ,inf";
      "purity-ge:1,1e999";
    ];
  (* an unknown solver is one error line, not a silent QP run *)
  let line =
    Jsonx.to_string
      (Jsonx.Obj
         [
           ("id", Jsonx.int 2);
           ("method", Jsonx.Str "verify");
           ( "params",
             Jsonx.Obj
               [
                 ("qasm", Jsonx.Str (Qasm.to_string ghz3));
                 ("guarantee", Jsonx.Str "pure:1");
                 ("solver", Jsonx.Str "nonsense");
               ] );
         ])
  in
  match fst (drive state [ line ]) with
  | [ only ] ->
      Alcotest.(check (option string))
        "solver" (Some "bad solver \"nonsense\" (qp | sgd | anneal | genetic)")
        (Jsonx.mem_str "error" only)
  | out -> Alcotest.failf "expected one line, got %d" (List.length out)

(* a program the daemon must refuse, and refuse before spending: its one
   line is the error (no accepted, certify, expect or verdict event, no
   result), even on a daemon that certifies every request, and it moves
   no counter *)
let server_refuses ~qasm ~guarantee want =
  with_obs_enabled (fun () ->
      let state = Server.make_state ~certify:true () in
      let line =
        Jsonx.to_string
          (Jsonx.Obj
             [
               ("id", Jsonx.int 1);
               ("request_id", Jsonx.Str "refused");
               ("method", Jsonx.Str "verify");
               ( "params",
                 Jsonx.Obj
                   [
                     ("qasm", Jsonx.Str qasm);
                     ("guarantee", Jsonx.Str guarantee);
                     ("count", Jsonx.int 4);
                   ] );
             ])
      in
      (match fst (drive state [ line ]) with
      | [ only ] ->
          Alcotest.(check (option string)) "error" (Some want)
            (Jsonx.mem_str "error" only)
      | out -> Alcotest.failf "expected one line, got %d" (List.length out));
      match Server.Recorder.find (Server.recorder state) "refused" with
      | Some s ->
          Alcotest.(check (list (pair string int)))
            "no counter moved" [] s.Server.Recorder.counters
      | None -> Alcotest.fail "request not recorded")

(* a user tracepoint 0 would be read as the program input by every spec;
   the daemon refuses the program with one error line instead *)
let test_server_reserved_tracepoint () =
  server_refuses
    ~qasm:
      "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nT 0 q[0];\ncx q[0],q[1];\nT 1 q[1];\n"
    ~guarantee:"pure:0"
    "4:1: error[MQ004]: tracepoint id 0 is reserved for the program input"

(* a tracepoint that names a qubit twice would read a matrix that is not
   a density of the register; the parser refuses it *)
let test_server_duplicate_tracepoint_qubit () =
  server_refuses
    ~qasm:"OPENQASM 2.0;\nqreg q[2];\nh q[0];\nT 1 q[0,0];\n"
    ~guarantee:"pure:1"
    "4:1: error[MQ003]: Circuit: duplicate qubit in tracepoint 1"

(* the program-error table: the daemon prints each error as lint does,
   without the file prefix *)
let test_server_program_errors () =
  List.iter
    (fun qasm ->
      match
        List.filter
          (fun d -> d.Analysis.Lint.severity = Analysis.Lint.Error)
          (Analysis.Lint.lint_qasm qasm)
      with
      | [ d ] ->
          server_refuses ~qasm ~guarantee:"pure:1"
            (Format.asprintf "%a" (Analysis.Lint.pp ?file:None) d)
      | ds -> Alcotest.failf "%d lint errors in %S" (List.length ds) qasm)
    [
      (* a syntax error *)
      "qreg q[2];\nh q[0]\ncx q[0],q[1];\n";
      (* a tracepoint that names a qubit twice *)
      "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nT 1 q[0,0];\n";
      (* a tracepoint with id 0, the id specs read as the input *)
      "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nT 0 q[0];\ncx q[0],q[1];\nT 1 q[1];\n";
      (* a malformed expect pragma *)
      "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nT 1 q[0,1];\n\
       expect 0 0.5, 0 0.5;\n";
    ]

(* stats.by_verb: request, error and seconds tallies per verb, kept with
   observability off (they feed morphqpv top) *)
let test_server_stats_by_verb () =
  let state = Server.make_state ~cache:(Cache.create ()) () in
  let refused =
    {|{"id":3,"method":"verify","params":{"qasm":"qreg q[1];\nT 0 q[0];\n","guarantee":"pure:1"}}|}
  in
  let out, _ =
    drive state
      [ {|{"id":1,"method":"ping"}|}; verify_req 2; refused;
        {|{"id":4,"method":"stats"}|} ]
  in
  let by_verb =
    match List.rev out with
    | stats :: _ -> member_exn "result" stats |> member_exn "by_verb"
    | [] -> Alcotest.fail "no response"
  in
  let tally verb key = member_exn verb by_verb |> member_exn key in
  Alcotest.(check int) "verify requests" 2 (tally "verify" "requests" |> int_exn);
  Alcotest.(check int) "verify errors" 1 (tally "verify" "errors" |> int_exn);
  Alcotest.(check int) "ping requests" 1 (tally "ping" "requests" |> int_exn);
  Alcotest.(check int) "ping errors" 0 (tally "ping" "errors" |> int_exn);
  match Jsonx.to_num (tally "verify" "seconds") with
  | Some s -> Alcotest.(check bool) "verify seconds summed" true (s > 0.)
  | None -> Alcotest.fail "verify seconds is not a number"

let () =
  Alcotest.run "cache"
    [
      ( "fnv",
        [ Alcotest.test_case "golden vectors" `Quick test_fnv_golden ] );
      ( "canon",
        [
          Alcotest.test_case "normalization" `Quick test_canon_normalization;
          qtest prop_canonical_relabeling_invariant;
          qtest prop_units_relabeling_invariant;
        ] );
      ( "store",
        [
          Alcotest.test_case "lru byte bound" `Quick test_store_lru;
          Alcotest.test_case "namespaces" `Quick test_store_namespaces;
          Alcotest.test_case "settings: flag over environment" `Quick
            test_store_settings;
          Alcotest.test_case "persistence" `Quick test_store_persistence;
          Alcotest.test_case "memo miss then hit" `Quick test_store_memo;
          Alcotest.test_case "memo rejects invalid" `Quick
            test_store_memo_invalid;
          Alcotest.test_case "memo undecodable entry" `Quick
            test_store_memo_undecodable;
        ] );
      ( "memo",
        [
          Alcotest.test_case "incremental warm + edited" `Quick
            test_incremental_warm_and_edited;
          Alcotest.test_case "whole-result fallback" `Quick
            test_whole_result_memo;
          Alcotest.test_case "one characterize.run span" `Quick
            test_one_characterize_span;
          Alcotest.test_case "verdict" `Quick test_verdict_memo;
          qtest prop_cache_transparent;
        ] );
      ( "lint",
        [ Alcotest.test_case "MQ020 cone hashes" `Quick test_lint_cone_hashes ]
      );
      ( "server",
        [
          Alcotest.test_case "jsonx roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "jsonx escaping" `Quick test_jsonx_escaping;
          qtest prop_jsonx_roundtrip;
          qtest prop_jsonx_parse_total;
          Alcotest.test_case "jsonx hostile input" `Quick test_jsonx_hostile;
          Alcotest.test_case "ping + errors" `Quick test_server_ping_and_errors;
          Alcotest.test_case "request ids" `Quick test_server_request_ids;
          Alcotest.test_case "metrics rpc" `Quick test_server_metrics_rpc;
          Alcotest.test_case "trace rpc" `Quick test_server_trace_rpc;
          qtest prop_server_obs_transparent;
          Alcotest.test_case "verify warm" `Quick test_server_verify_warm;
          Alcotest.test_case "large integral seed" `Quick test_server_large_seed;
          Alcotest.test_case "verify certified" `Quick
            test_server_verify_certify;
          Alcotest.test_case "shutdown" `Quick test_server_shutdown;
          Alcotest.test_case "hostile lines" `Quick test_server_hostile_lines;
          Alcotest.test_case "socket smoke" `Quick test_serve_socket_smoke;
          Alcotest.test_case "spec grammar" `Quick test_spec_grammar;
          Alcotest.test_case "spec errors" `Quick test_server_spec_error;
          Alcotest.test_case "reserved tracepoint 0" `Quick test_server_reserved_tracepoint;
          Alcotest.test_case "duplicate tracepoint qubit" `Quick
            test_server_duplicate_tracepoint_qubit;
          Alcotest.test_case "program errors as lint prints them" `Quick
            test_server_program_errors;
          Alcotest.test_case "stats by verb" `Quick test_server_stats_by_verb;
          Alcotest.test_case "verify golden" `Quick test_server_verify_golden;
        ] );
    ]
