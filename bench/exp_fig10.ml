(* Figure 10: sampled inputs needed to identify the corrupted QRAM cell.

   The QRAM specification is itself a linear (isomorphic) map from the
   address state to the data state, A = sum_i |theta_i><i|, so MorphQPV can
   state an input-independent guarantee  rho_T2 = A rho_T1 A^dagger  and
   search for its violation after one characterization pass. Baselines test
   one address at a time. *)

open Morphcore
open Linalg

(* The QRAM specification as a linear map on the address state: since the
   address register stays entangled with the data qubit, the reduced data
   state under address distribution {p_i} is sum_i p_i |theta_i><theta_i| —
   a linear (and thus isomorphism-compatible) function of rho_in. *)
let qram_assertion table =
  let cell_state theta =
    let v = Cvec.of_list [ Cx.of_float (cos theta); Cx.of_float (sin theta) ] in
    Cmat.outer v v
  in
  let cells = Array.map cell_state table in
  let spec env =
    let rho_in = env 1 in
    let expected = ref (Cmat.create 2 2) in
    Array.iteri
      (fun i cell ->
        let p = Cx.re (Cmat.get rho_in i i) in
        expected := Cmat.add !expected (Cmat.rscale p cell))
      cells;
    Cmat.frob_norm (Cmat.sub (env 2) !expected) -. 0.05
  in
  Assertion.make ~name:"qram spec"
    ~assumes:[]
    ~guarantees:[ Predicate.Custom ("output = sum_i p_i |theta_i><theta_i|", spec) ]
    ()

let morph_detects rng program assertion count =
  let ch = Characterize.run ~rng program ~count in
  let approx = Approx.of_characterization ch in
  let options = { Verify.default_options with budget = 2000; restarts = 2 } in
  match Verify.validate ~options ~rng ~confirm:program approx assertion with
  | Verify.Violated _ -> true
  | Verify.Verified _ -> false

let run () =
  Util.header "Figure 10: executions to identify the corrupted QRAM cell";
  Util.row "%-8s %-12s %-12s %-12s %-12s" "addr" "cells" "Quito" "NDD" "MorphQPV";
  List.iter
    (fun a ->
      let seeds = [ 7; 17; 27 ] in
      let avg f = Util.mean (Array.of_list (List.map f seeds)) in
      let build seed =
        let rng = Stats.Rng.make (1000 + seed) in
        let table = Benchmarks.Qram.uniform_table rng a in
        let bad_addr = (1 lsl a) - 2 in
        let buggy =
          Benchmarks.Qram.make ~corrupt:(bad_addr, table.(bad_addr) +. 1.3) ~table a
        in
        let clean = Benchmarks.Qram.make ~table a in
        let prog q =
          Program.make ~input_qubits:q.Benchmarks.Qram.addr_qubits
            q.Benchmarks.Qram.circuit
        in
        (table, prog clean, prog buggy)
      in
      let quito =
        avg (fun seed ->
            let rng = Stats.Rng.make seed in
            let _, reference, candidate = build seed in
            match Baselines.Quito.executions_to_find ~rng ~reference ~candidate () with
            | Some n -> float_of_int (2 * n)
            | None -> float_of_int (1 lsl (a + 1)))
      in
      let ndd =
        avg (fun seed ->
            let rng = Stats.Rng.make (seed + 50) in
            let _, reference, candidate = build seed in
            match
              Baselines.Ndd.executions_to_find ~rng ~tracepoint:2 ~reference
                ~candidate ()
            with
            | Some n -> float_of_int (2 * n)
            | None -> float_of_int (1 lsl (a + 1)))
      in
      let morph =
        avg (fun seed ->
            let rng = Stats.Rng.make (seed + 99) in
            let table, _, candidate = build seed in
            let assertion = qram_assertion table in
            match
              Util.min_samples_doubling ~start:2 ~cap:(1 lsl (a + 1))
                (fun count -> morph_detects rng candidate assertion count)
            with
            | Some n -> float_of_int n
            | None -> float_of_int (1 lsl (a + 2)))
      in
      Util.row "%-8d %-12d %-12.1f %-12.1f %-12.1f" a (1 lsl a) quito ndd morph)
    [ 2; 3; 4 ]
