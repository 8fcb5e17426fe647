open Linalg

type mode =
  | Exact
  | Tomography of { shots : int; project : bool }
  | Probs_only of { shots : int }

type sample = {
  input_state : Qstate.Statevec.t;
  input_dm : Cmat.t;
  traces : (int * Cmat.t) list;
}

type t = {
  program : Program.t;
  samples : sample array;
  mode : mode;
  cost : Sim.Cost.t;
}


let degrade ?budget rng mode cost shape (id, exact) =
  match mode with
  | Exact ->
      Sim.Cost.record_total cost shape ~executions:1 ~total_shots:1;
      (id, exact)
  | Tomography { shots; project } ->
      let tomo =
        Tomography.State_tomo.run ~project ?budget rng ~shots ~truth:exact ()
      in
      Sim.Cost.record_total cost shape
        ~executions:tomo.Tomography.State_tomo.settings
        ~total_shots:tomo.Tomography.State_tomo.shots_used;
      (id, tomo.Tomography.State_tomo.rho)
  | Probs_only { shots } ->
      let tomo =
        Tomography.State_tomo.probs_only ?budget rng ~shots ~truth:exact ()
      in
      Sim.Cost.record_total cost shape ~executions:1
        ~total_shots:tomo.Tomography.State_tomo.shots_used;
      (id, tomo.Tomography.State_tomo.rho)

type engine = [ `Auto | `Batched | `Sequential ]

(* The cache invariant every entry obeys: the stored value is a pure
   function of its key. Keys fold in every run parameter the value
   depends on — canonical unit bytes (or exact circuit bytes), the input
   fingerprint, the entry generator fingerprint, mode/budget — so a hit
   is bit-indistinguishable from recomputation, across eviction and
   persistence reload. *)

let ns_characterize = "characterize"

(* per-unit dense simulation allocates [2^width] amplitudes; past this
   width the incremental path would defeat the scalable-engine routing,
   so such programs take the routed path (Basis-routed scale programs)
   or the whole-result memo *)
let unit_width_cap = 22

(* How a characterization runs, decided once per run. With a cache, a
   pure program (see [run]) whose every cone unit fits under
   [unit_width_cap] is characterized one backward cone at a time
   ([Units], each unit memoized). Otherwise [`Auto] routes only with
   basis-state inputs on an ideal program: then [Sim.Engine.auto_route]
   may send each sample to a lightcone-restricted cone backend
   (stabilizer tableau, sparse coordinates or stabilizer rank) instead of
   a full state-vector pass. The decision is purely static — never a
   function of sampled values — so programs outside it take exactly the
   code path and generator streams they did before the routing existed:
   batched when the noise model is ideal, sequential otherwise. A pure
   batched run may instead combine its inputs from the basis states
   ([Span], when [spans_basis] holds). *)
type decision =
  | Units of Cache.t * (Analysis.Lightcone.cone * Cache.Canon.unit_circuit) list
  | Routed of Sim.Engine.route
  | Batched of Sim.Batch.plan Lazy.t
  | Span of Sim.Batch.plan
  | Sequential

let path_name = function
  | Units _ -> "units"
  | Routed _ -> "routed"
  | Batched _ -> "batched"
  | Span _ -> "span"
  | Sequential -> "sequential"

(* Linearity (Theorem 1): a pure program maps the embedded input
   [sum_a psi_a |a>] to [sum_a psi_a phi_a] at every tracepoint, [phi_a]
   being embedded basis state [a]'s state there. Simulating the [2^k]
   basis states and combining each of [distinct] inputs from them beats
   simulating the inputs when three facts hold: there are more inputs
   than basis states; the [2^k] basis states of [2^n] amplitudes fit the
   batch's amplitude budget; and one column's fused-block MACs exceed
   the [T * 2^k] MACs per amplitude the combination costs at [T]
   tracepoints. The plan is compiled only once the first two hold. *)
let spans_basis ~pure ~distinct ~k circuit plan =
  let n = Circuit.num_qubits circuit in
  pure
  && distinct > 1 lsl k
  && 1 lsl k <= Sim.Batch.amplitude_budget asr n
  && Sim.Batch.column_macs (Lazy.force plan)
     > List.length (Circuit.tracepoints circuit) * (1 lsl (k + n))

let decide ?cache ~engine ~kind ~inputs ~ideal ~pure ~distinct ?wall program =
  let circuit = program.Program.circuit in
  let units =
    match cache with
    | Some cache when pure ->
        let units =
          List.map
            (fun cone ->
              ( cone,
                Cache.Canon.cone_unit circuit
                  ~input_qubits:program.Program.input_qubits cone ))
            (Analysis.Lightcone.cones circuit)
        in
        if
          List.for_all
            (fun (_, u) -> u.Cache.Canon.width <= unit_width_cap)
            units
        then Some (cache, units)
        else None
    | _ -> None
  in
  let batched () =
    let plan = lazy (Transpile.Segments.compile circuit) in
    let k = Program.num_input_qubits program in
    if spans_basis ~pure ~distinct ~k circuit plan then Span (Lazy.force plan)
    else Batched plan
  in
  match (units, engine) with
  | Some (cache, units), _ -> Units (cache, units)
  | None, `Sequential -> Sequential
  | None, `Batched ->
      if not ideal then
        invalid_arg "Characterize.run: batched engine requires ideal noise";
      batched ()
  | None, `Auto -> (
      let route =
        if Option.is_none inputs && kind = Clifford.Sampling.Basis && ideal
        then Sim.Engine.auto_route ?wall circuit
        else None
      in
      match route with
      | Some route -> Routed route
      | None -> if ideal then batched () else Sequential)

let statevec_fp st = Marshal.to_string (st : Qstate.Statevec.t) []

let inputs_fingerprint ~kind ~count inputs =
  match inputs with
  | None -> "kind" ^ Marshal.to_string (kind, count) []
  | Some states ->
      "explicit"
      ^ Cache.Canon.digest (String.concat "" (List.map statevec_fp states))

(* Distinct inputs by exact bits, in first-occurrence order: [slot.(i)]
   is the distinct input sample [i] holds and [first.(j)] the first
   sample holding distinct input [j]. The hash table only shortlists;
   its string equality is equality of the states' bits. *)
let distinct_inputs inputs =
  let seen = Hashtbl.create 16 in
  let first = ref [] in
  let slot =
    Array.mapi
      (fun i st ->
        let key = statevec_fp st in
        match Hashtbl.find_opt seen key with
        | Some j -> j
        | None ->
            let j = Hashtbl.length seen in
            Hashtbl.add seen key j;
            first := i :: !first;
            j)
      inputs
  in
  (slot, Array.of_list (List.rev !first))

(* The one per-sample loop: [exact i] returns the generator sample [i]'s
   degradation draws from with its exact traces; every trace but the
   input's (id 0) is degraded per [mode] into a private meter, and the
   meters merge into [cost] in sample order, so results are bit-identical
   for any domain count. *)
let degrade_samples ~pool ~span ~cost ~mode ~budget shape n exact =
  let results =
    Parallel.Pool.map_init pool n (fun i ->
        Obs.Span.with_ ~name:span @@ fun () ->
        let meter = Sim.Cost.create () in
        let rng, traces = exact i in
        ( List.map
            (fun (id, m) ->
              if id = 0 then (id, m)
              else degrade ?budget rng mode meter shape (id, m))
            traces,
          meter ))
  in
  Array.iter (fun (_, m) -> Sim.Cost.add cost m) results;
  Array.map fst results

let input_density st =
  let v = Qstate.Statevec.to_cvec st in
  Cmat.outer v v

(* [sum_a psi_a basis.(a)], accumulated in ascending [a], skipping zero
   coefficients *)
let combine (psi : Qstate.Statevec.t) (basis : Qstate.Statevec.t array) =
  let n = Qstate.Statevec.num_qubits basis.(0) in
  let d = 1 lsl n in
  let re = Array.make d 0. and im = Array.make d 0. in
  Array.iteri
    (fun a (phi : Qstate.Statevec.t) ->
      let pr = psi.re.(a) and pi = psi.im.(a) in
      if pr <> 0. || pi <> 0. then
        for x = 0 to d - 1 do
          re.(x) <- re.(x) +. (pr *. phi.re.(x)) -. (pi *. phi.im.(x));
          im.(x) <- im.(x) +. (pr *. phi.im.(x)) +. (pi *. phi.re.(x))
        done)
    basis;
  Qstate.Statevec.of_cvec n (Cvec.of_arrays re im)

let run ?pool ?rng ?(kind = Clifford.Sampling.Clifford) ?(mode = Exact) ?budget
    ?noise ?trajectories ?(engine = `Auto) ?inputs ?cache ?wall program ~count =
  let attrs =
    ("count", string_of_int count)
    :: (if Option.is_some cache then [ ("cache", "1") ] else [])
  in
  let path = ref "" and columns = ref 0 in
  Obs.Span.with_ ~name:"characterize.run" ~attrs
    ~finish:(fun _ ->
      [ ("path", !path); ("columns", string_of_int !columns) ])
  @@ fun () ->
  let rng = match rng with Some r -> r | None -> Stats.Rng.make 7 in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  (* cache keys end with the inputs, the caller's generator as it was on
     entry, and the mode: fingerprinted before any generator consumption *)
  let key_suffix =
    match cache with
    | None -> []
    | Some _ ->
        [
          inputs_fingerprint ~kind ~count inputs;
          string_of_int (Stats.Rng.fingerprint rng);
          Marshal.to_string (mode, budget) [];
        ]
  in
  let cache_key parts =
    Cache.Canon.digest (String.concat "\x00" (parts @ key_suffix))
  in
  let k = Program.num_input_qubits program in
  let inputs_arr =
    match inputs with
    | Some states ->
        List.iter
          (fun st ->
            if Qstate.Statevec.num_qubits st <> k then
              invalid_arg "Characterize.run: input size mismatch")
          states;
        Array.of_list states
    | None ->
        Array.init count (fun index -> Clifford.Sampling.state rng kind k ~index)
  in
  (* one split child generator and one private cost meter per sample,
     derived/merged in index order so the characterization is
     bit-identical for any domain count — and the caller's stream
     continues from the same position whichever path runs, even on full
     cache hits *)
  let n = Array.length inputs_arr in
  let rngs = Array.init n (Stats.Rng.split rng) in
  let ideal = match noise with None -> true | Some nz -> Sim.Noise.is_ideal nz in
  let circuit = program.Program.circuit in
  (* Pure: ideal noise and no measurement, reset or feedback, so a
     sample's exact traces are a function of its input's bits alone and
     draw nothing from its generator. A pure run simulates each distinct
     input once, on whichever engine the decision picked, and every
     sample reads the traces of its input; any other run simulates every
     sample on its own generator. Degradation, generators and meters stay
     per sample either way, so only repeated simulations go. *)
  let pure = ideal && Sim.Engine.is_deterministic circuit in
  let slot, first =
    if pure then distinct_inputs inputs_arr
    else (Array.init n Fun.id, Array.init n Fun.id)
  in
  let m = Array.length first in
  let cost = Sim.Cost.create () in
  let degrade_samples =
    degrade_samples ~pool ~cost ~mode ~budget (Sim.Cost.shape circuit) n
  in
  (* [exact j] simulates distinct input [j] once; then sample [i]'s
     degradation reads [slot.(i)]'s traces with generator [rng i]. The
     traces are shared, never copied: a trace matrix is immutable once
     made. *)
  let share ~span ~rng exact =
    let traces =
      Parallel.Pool.map_init pool m (fun j ->
          Obs.Span.with_ ~name:span @@ fun () -> exact j)
    in
    degrade_samples ~span (fun i -> (rng i, traces.(slot.(i))))
  in
  (* Batched path: compile the circuit once into fused segment operators and
     run every distinct input as one column of a packed batch, instead of
     re-walking the circuit gate by gate per sample. Trace values agree with
     the sequential path to ~1e-15 (fusion reorders segment arithmetic);
     generator streams, cost accounting and the batched engine's own results
     are bit-identical for any domain count. *)
  let batch_traces plan =
    let embed j = Program.embed program inputs_arr.(first.(j)) in
    if Sim.Batch.is_deterministic plan then
      Sim.Batch.run_traces ~pool plan ~count:m ~init:embed
    else begin
      let t =
        Option.value trajectories ~default:Sim.Engine.default_trajectories
      in
      (* one column per input x trajectory, seeded with exactly the split
         children the sequential trajectory fan-out would derive — so each
         sample generator's stream position (consumed below by [degrade])
         is unchanged; a stochastic plan is impure, so every sample is its
         own input here *)
      let col_rngs =
        Array.concat
          (Array.to_list
             (Array.map (fun i -> Sim.Engine.split_children rngs.(i) t) first))
      in
      let per_col =
        Sim.Batch.run_traces ~pool ~rngs:col_rngs plan ~count:(m * t)
          ~init:(fun col -> embed (col / t))
      in
      Array.init m (fun j ->
          Sim.Engine.average_traces t (Array.sub per_col (j * t) t))
    end
  in
  let input_positions = Array.of_list program.Program.input_qubits in
  (* Span path ([spans_basis]): the [2^k] embedded basis states run once
     through the plan, a segment at a time; at each tracepoint every
     distinct input's state is combined from theirs and reduced as
     [Engine.step] reduces it, one input per pool task *)
  let span_traces plan =
    let width = plan.Sim.Batch.num_qubits in
    let per_tracepoint = ref [] in
    Sim.Batch.iter_tracepoints ~pool plan ~count:(1 lsl k)
      ~init:(fun a ->
        Qstate.Statevec.basis width
          (Qstate.Statevec.embed_index input_positions a))
      (fun id qubits basis ->
        let rhos =
          Parallel.Pool.map_init pool m (fun j ->
              Qstate.Statevec.reduced_density
                (combine inputs_arr.(first.(j)) basis)
                qubits)
        in
        per_tracepoint := (id, rhos) :: !per_tracepoint);
    let per_tracepoint = List.rev !per_tracepoint in
    Array.init m (fun j ->
        List.map (fun (id, rhos) -> (id, rhos.(j))) per_tracepoint)
  in
  (* every sample through one engine, tracepoints degraded per [mode]; a
     trace list leads with the input's density (id 0), built once per
     distinct input *)
  let simulate decision () =
    let runs =
      if pure then 1
      else Option.value trajectories ~default:Sim.Engine.default_trajectories
    in
    columns :=
      !columns + (match decision with Span _ -> 1 lsl k | _ -> m * runs);
    let batched_traces =
      match decision with
      | Batched plan -> Some (batch_traces (Lazy.force plan))
      | Span plan -> Some (span_traces plan)
      | Units _ | Routed _ | Sequential -> None
    in
    share ~span:"characterize.sample" ~rng:(Array.get rngs) (fun j ->
        let i = first.(j) in
        let input_state = inputs_arr.(i) in
        (* A routed run samples its own basis inputs, so sample [i]'s
           input is basis state [Sampling.basis_index k ~index:i]; its
           full-register preparation index sidesteps [Program.embed]'s
           dense allocation, which cannot exist at 28+ qubits. *)
        let prep =
          match decision with
          | Routed route ->
              Some
                ( route,
                  Qstate.Statevec.embed_index input_positions
                    (Clifford.Sampling.basis_index k ~index:i) )
          | Units _ | Batched _ | Span _ | Sequential -> None
        in
        match (prep, batched_traces) with
        | Some (route, prep), _ ->
            (0, input_density input_state)
            :: Sim.Engine.cone_traces ~prep route circuit
        | None, Some all -> (0, input_density input_state) :: all.(j)
        | None, None ->
            Program.run_traces ~pool ?noise ?trajectories ~rng:rngs.(i) program
              ~input:input_state)
    |> Array.mapi (fun i traces ->
           { input_state = inputs_arr.(i); input_dm = List.assoc 0 traces; traces })
  in
  let decision =
    decide ?cache ~engine ~kind ~inputs ~ideal ~pure ~distinct:m ?wall program
  in
  path := path_name decision;
  let samples =
    match (decision, cache) with
    | Units (cache, units), _ ->
        let per_cone =
          List.map
            (fun ((cone : Analysis.Lightcone.cone), (u : Cache.Canon.unit_circuit)) ->
              let key = cache_key [ "unit-v1"; u.Cache.Canon.bytes ] in
              let id = cone.Analysis.Lightcone.id in
              ( id,
                Cache.memo cache ~ns:ns_characterize
                  ~valid:(fun arr -> Array.length arr = n)
                  key
                  (fun () ->
                    columns := !columns + m;
                    (* one exact trace per distinct input, simulated in
                       the unit's canonical qubit order so the computation
                       is literally a function of the unit bytes;
                       degradation draws from a generator derived from
                       (cache key, sample index), independent of which
                       other cones hit the cache and of the caller's
                       stream *)
                    share ~span:"characterize.unit"
                      ~rng:(fun i ->
                        Stats.Rng.make
                          (Cache.Fnv.seed_of_string (Printf.sprintf "%s#%d" key i)))
                      (fun j ->
                        let out =
                          Sim.Engine.run
                            ~initial:
                              (Qstate.Statevec.embed u.Cache.Canon.width
                                 u.Cache.Canon.embed inputs_arr.(first.(j)))
                            u.Cache.Canon.circuit
                        in
                        [ (id, List.assoc id out.Sim.Engine.traces) ])
                    |> Array.map (fun traces -> snd (List.hd traces))) ))
            units
        in
        let input_dms = Array.map (fun i -> input_density inputs_arr.(i)) first in
        Array.init n (fun i ->
            let input_dm = input_dms.(slot.(i)) in
            let traces =
              (0, input_dm) :: List.map (fun (id, arr) -> (id, arr.(i))) per_cone
            in
            { input_state = inputs_arr.(i); input_dm; traces })
    | ((Batched _ | Span _ | Sequential) as decision), Some cache ->
        (* stochastic, noisy or too-wide programs: whole-result memo keyed
           by the exact (unrenumbered) circuit bytes and every parameter.
           [Span] never reaches it: a pure program whose basis states fit
           the batch budget has every cone unit under [unit_width_cap]. *)
        Cache.memo cache ~ns:ns_characterize
          (cache_key
             [
               "whole-v1";
               Cache.Canon.exact_bytes circuit;
               Marshal.to_string
                 (program.Program.input_qubits, noise, trajectories, engine)
                 [];
             ])
          (simulate decision)
    | decision, _ ->
        (* uncached, or routed: the cone backends are already
           lightcone-restricted and cheap, so routed runs stay unmemoized *)
        simulate decision ()
  in
  { program; samples; mode; cost }

let tracepoint_ids t =
  if Array.length t.samples = 0 then []
  else List.map fst t.samples.(0).traces
