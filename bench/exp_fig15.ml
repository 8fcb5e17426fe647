(* Figure 15(a): ablation of the input-sampling family — Clifford-group
   states vs computational basis states (plus Haar as an extra lens).
   Basis-state samples only span the diagonal of the Hermitian space, so
   their accuracy plateaus; Clifford samples carry superposition and
   entanglement and reach full accuracy with 2^(n+1) samples.

   Figure 15(b): validation time of the constrained optimization for the
   SGD (Adam), genetic, annealing and quadratic-programming solvers. *)

open Morphcore

let fig15a () =
  Util.header "Figure 15(a): Clifford vs basis vs Haar input sampling";
  let rng = Stats.Rng.make 151 in
  let n = 4 in
  let program =
    Util.cap_input_qubits (Util.benchmark_program rng "Shor" (n + 1)) ~max_inputs:n
  in
  let _, last = Util.first_last_tracepoints program in
  Util.row "Shor core, %d input qubits; probe accuracy at the output tracepoint" n;
  Util.row "%-10s %-12s %-12s %-12s" "N_sample" "basis" "clifford" "haar";
  List.iter
    (fun count ->
      let acc kind =
        let ch = Characterize.run ~rng ~kind program ~count in
        let approx = Approx.of_characterization ch in
        Util.probe_accuracy ~count:6 rng approx program ~tracepoint:last
      in
      Util.row "%-10d %-12.4f %-12.4f %-12.4f" count
        (acc Clifford.Sampling.Basis)
        (acc Clifford.Sampling.Clifford)
        (acc Clifford.Sampling.Haar))
    [ 4; 8; 16; 32; 64 ]

let fig15b () =
  Util.header "Figure 15(b): validation time by solver";
  let rng = Stats.Rng.make 152 in
  let k = 4 in
  let lock = Benchmarks.Quantum_lock.make ~key:1 ~unexpected_key:6 k in
  let program =
    Program.make ~input_qubits:lock.Benchmarks.Quantum_lock.key_qubits
      lock.Benchmarks.Quantum_lock.circuit
  in
  let assertion =
    Assertion.make ~name:"lock"
      ~assumes:[ Predicate.Diag_in_range (1, 1, 0., 0.01) ]
      ~guarantees:[ Predicate.Equals_const (2, Util.basis_dm 1 0) ]
      ()
  in
  Util.row "%-10s %-12s %-12s %-12s %-12s" "N_sample" "sgd-adam" "annealing" "genetic" "quadratic";
  List.iter
    (fun count ->
      let ch = Characterize.run ~rng program ~count in
      let approx = Approx.of_characterization ch in
      let time_of solver =
        let options =
          { Verify.solver; budget = 1500; restarts = 1 }
        in
        let _, t =
          Util.time (fun () -> Verify.validate ~options ~rng approx assertion)
        in
        t
      in
      Util.row "%-10d %-12.3f %-12.3f %-12.3f %-12.3f" count (time_of `Adam)
        (time_of `Anneal) (time_of `Genetic) (time_of `Qp))
    [ 8; 16; 32 ]

let run () =
  fig15a ();
  fig15b ()
