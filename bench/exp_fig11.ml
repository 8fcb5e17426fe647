(* Figure 11(a): time to obtain a tracepoint state per input —
   isomorphism-based approximation vs classical simulation vs state
   tomography vs process tomography. Approximation and simulation are
   measured wall-clock; the tomography columns report estimated hardware
   time from the paper's IBMQ gate/readout latencies (the quantity that
   actually dominates on a device).

   Figure 11(b): average approximation accuracy of the five benchmark
   algorithms vs the number of sampled inputs. *)

open Morphcore

let fig11a () =
  Util.header "Figure 11(a): time to obtain a tracepoint state under one input";
  Util.row "(teleportation: total qubits = 3 * input qubits, so simulation pays for";
  Util.row " the full register while the approximation pays only for the input)";
  Util.row "%-8s %-8s %-14s %-14s %-16s %-16s" "qubits" "inputs" "approx (s)"
    "simulate (s)" "state-tomo (s)" "process-tomo (s)";
  let rng = Stats.Rng.make 111 in
  List.iter
    (fun payload ->
      let n = 3 * payload in
      let program =
        Program.make
          ~input_qubits:(Benchmarks.Teleport.input_qubits payload)
          (Benchmarks.Teleport.multi payload)
      in
      let count = min 32 (Approx.samples_for_full_accuracy ~n_in:payload) in
      let ch = Characterize.run ~rng ~trajectories:8 program ~count in
      let approx = Approx.of_characterization ch in
      let rho_in = Util.dm_of_state (Clifford.Sampling.haar_state rng payload) in
      (* force the one-time factorization before timing the per-input cost *)
      ignore (Approx.state_at ~physical:false approx ~tracepoint:2 rho_in);
      let reps = 5 in
      let (), t_approx =
        Util.time (fun () ->
            for _ = 1 to reps do
              ignore (Approx.state_at ~physical:false approx ~tracepoint:2 rho_in)
            done)
      in
      let input = Clifford.Sampling.haar_state rng payload in
      let (), t_sim =
        Util.time (fun () ->
            for _ = 1 to reps do
              ignore (Program.run_traces ~rng program ~input)
            done)
      in
      (* hardware estimate for tomography of the payload-sized tracepoint *)
      let shots = 1000 in
      let settings = Tomography.State_tomo.settings_count payload in
      let circuit_seconds =
        let m = Sim.Cost.create () in
        Sim.Cost.record_circuit m (Sim.Cost.shape program.Program.circuit) ~shots:1;
        Sim.Cost.hardware_seconds m
      in
      let t_state_tomo = float_of_int (settings * shots) *. circuit_seconds in
      let _, proc_shots = Tomography.Process_tomo.cost ~n:payload ~shots in
      let t_process_tomo = float_of_int proc_shots *. circuit_seconds in
      Util.row "%-8d %-8d %-14.6f %-14.6f %-16.4f %-16.1f" n payload
        (t_approx /. float_of_int reps)
        (t_sim /. float_of_int reps)
        t_state_tomo t_process_tomo)
    [ 2; 3; 4; 5 ]

let fig11b () =
  Util.header "Figure 11(b): approximation accuracy of the five benchmarks vs N_sample";
  let n = 4 in
  let rng = Stats.Rng.make 112 in
  let budgets = [ 2; 4; 8; 16; 32 ] in
  Util.row "%-8s %s" "N_sample"
    (String.concat " " (List.map (Printf.sprintf "%-10s") Util.benchmark_names));
  let programs =
    List.map
      (fun name ->
        let p = Util.benchmark_program rng name n in
        (name, Util.cap_input_qubits p ~max_inputs:4))
      Util.benchmark_names
  in
  List.iter
    (fun count ->
      let cells =
        List.map
          (fun (_, program) ->
            let ch =
              Characterize.run ~rng ~kind:Clifford.Sampling.Clifford
                ~trajectories:8 program ~count
            in
            let approx = Approx.of_characterization ch in
            let _, last = Util.first_last_tracepoints program in
            Util.probe_accuracy ~count:6 rng approx program ~tracepoint:last)
          programs
      in
      Util.row "%-8d %s" count
        (String.concat " " (List.map (Printf.sprintf "%-10.4f") cells)))
    budgets;
  Util.row "(theory, case 2: N_sample / 2^(n+1) with n = 4 input qubits)"

let run () =
  fig11a ();
  fig11b ()
