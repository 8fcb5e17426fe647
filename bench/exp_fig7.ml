(* Figure 7: number of program executions (sampled inputs) needed to
   identify the unexpected-key bug in the quantum lock, for Quito, NDD and
   MorphQPV, as the lock grows.

   Baselines grid-search basis inputs and stop at the first detection
   (expected cost 2^(k-1)). MorphQPV characterizes once with Clifford
   superposition inputs — which sense every key at once — and finds the
   counter-example by classical optimization; we report the smallest sample
   budget (doubling search) whose validation finds a confirmed
   counter-example. *)

open Morphcore

let zero_dm = Util.basis_dm 1 0

let lock_assertion key =
  Assertion.make ~name:"lock"
    ~assumes:[ Predicate.Diag_in_range (1, key, 0., 0.01) ]
    ~guarantees:[ Predicate.Equals_const (2, zero_dm) ]
    ()

let morph_detects rng program assertion count =
  let ch = Characterize.run ~rng program ~count in
  let approx = Approx.of_characterization ch in
  let options =
    { Verify.default_options with budget = 2000; restarts = 2 }
  in
  match Verify.validate ~options ~rng ~confirm:program approx assertion with
  | Verify.Violated _ -> true
  | Verify.Verified _ -> false

let run () =
  Util.header "Figure 7: executions to identify the quantum-lock bug";
  Util.row "%-8s %-12s %-12s %-12s %-12s" "k bits" "space" "Quito" "NDD" "MorphQPV";
  List.iter
    (fun k ->
      let seeds = [ 11; 22; 33 ] in
      let key = 1 and unexpected_key = (1 lsl k) - 2 in
      let avg f = Util.mean (Array.of_list (List.map f seeds)) in
      let build () =
        let buggy = Benchmarks.Quantum_lock.make ~key ~unexpected_key k in
        let clean = Benchmarks.Quantum_lock.make ~key k in
        let prog l =
          Program.make ~input_qubits:l.Benchmarks.Quantum_lock.key_qubits
            l.Benchmarks.Quantum_lock.circuit
        in
        (prog clean, prog buggy)
      in
      let quito =
        avg (fun seed ->
            let rng = Stats.Rng.make seed in
            let reference, candidate = build () in
            match Baselines.Quito.executions_to_find ~rng ~reference ~candidate () with
            | Some n -> float_of_int (2 * n) (* reference + candidate run per test *)
            | None -> float_of_int (1 lsl (k + 1)))
      in
      let ndd =
        avg (fun seed ->
            let rng = Stats.Rng.make (seed + 100) in
            let reference, candidate = build () in
            match
              Baselines.Ndd.executions_to_find ~rng ~tracepoint:2 ~reference
                ~candidate ()
            with
            | Some n -> float_of_int (2 * n)
            | None -> float_of_int (1 lsl (k + 1)))
      in
      let morph =
        avg (fun seed ->
            let rng = Stats.Rng.make (seed + 200) in
            let _, candidate = build () in
            let assertion = lock_assertion key in
            match
              Util.min_samples_doubling ~start:4 ~cap:(1 lsl (k + 1))
                (fun count -> morph_detects rng candidate assertion count)
            with
            | Some n -> float_of_int n
            | None -> float_of_int (1 lsl (k + 2)))
      in
      Util.row "%-8d %-12d %-12.1f %-12.1f %-12.1f" k (1 lsl k) quito ndd morph)
    [ 3; 4; 5; 6 ]
