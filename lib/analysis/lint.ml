(* Diagnostics linter over the circuit IR.

   Structural validity (MQ000-MQ003, MQ013-MQ016) is enforced by the
   parser and [Circuit]'s constructors and surfaces here via [lint_qasm];
   [check] itself runs the semantic checks MQ004-MQ012 that need the
   lightcone / classical-dataflow analyses. *)

type severity = Error | Warning | Info

type diagnostic = {
  severity : severity;
  code : string;
  message : string;
  loc : (int * int) option;  (** (line, column) in the QASM source *)
  instr : int option;  (** instruction index in [Circuit.instrs] order *)
}

(* the full diagnostic table; keep in sync with DESIGN.md section 10 *)
let codes =
  [
    ("MQ000", Error, "syntax error");
    ("MQ001", Error, "qubit index out of range");
    ("MQ002", Error, "clbit index out of range");
    ("MQ003", Error, "duplicate qubit among operands");
    ("MQ004", Error, "duplicate or reserved tracepoint id");
    ("MQ005", Error, "feedback reads a clbit never written by a measurement");
    ("MQ006", Warning, "measurement result overwritten before any read");
    ("MQ007", Warning, "operation on a qubit after its final measurement");
    ("MQ008", Warning, "unused qubit");
    ("MQ009", Warning, "unreachable feedback condition value");
    ("MQ010", Info, "no-op barrier");
    ("MQ011", Info, "program has no tracepoints");
    ("MQ012", Info, "tracepoint observes a qubit no operation has touched");
    ("MQ013", Error, "register mismatch");
    ("MQ014", Error, "adjoint of a non-unitary instruction");
    ("MQ015", Error, "unknown or malformed gate");
    ("MQ016", Error, "invalid register declaration");
    ("MQ017", Warning, "estimated characterization cost exceeds threshold");
    ("MQ018", Info, "estimated simulation class");
    ("MQ019", Error, "invalid distribution expectation pragma");
    ("MQ020", Info, "tracepoint lightcone content hash");
    ("MQ021", Error, "transpile certificate check failed");
  ]

let severity_of_code code =
  match List.find_opt (fun (c, _, _) -> c = code) codes with
  | Some (_, sev, _) -> sev
  | None -> Error

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp ?file ppf d =
  (match (file, d.loc) with
  | Some f, Some (line, col) -> Format.fprintf ppf "%s:%d:%d: " f line col
  | Some f, None -> Format.fprintf ppf "%s: " f
  | None, Some (line, col) -> Format.fprintf ppf "%d:%d: " line col
  | None, None -> ());
  Format.fprintf ppf "%s[%s]: %s" (severity_string d.severity) d.code d.message

let int_list_string qs = String.concat "," (List.map string_of_int qs)

(* the source position of instruction [i]; [locs] comes from
   [Qasm.parse_with_locs] *)
let loc_of locs i =
  match locs with
  | Some a when i >= 0 && i < Array.length a -> Some a.(i)
  | _ -> None

(* MQ004: duplicate tracepoint ids, and id 0, which specs and the
   approximation read as the program input *)
let check_tracepoint_ids ?locs c =
  let seen = Hashtbl.create 8 and out = ref [] in
  List.iteri
    (fun i instr ->
      match instr with
      | Circuit.Instr.Tracepoint { id; _ } -> (
          let emit message =
            out :=
              { severity = Error; code = "MQ004"; message;
                loc = loc_of locs i; instr = Some i }
              :: !out
          in
          if id = 0 then emit "tracepoint id 0 is reserved for the program input";
          match Hashtbl.find_opt seen id with
          | Some first ->
              let at =
                match loc_of locs first with
                | Some (line, col) -> Printf.sprintf "%d:%d" line col
                | None -> Printf.sprintf "instruction %d" first
              in
              emit
                (Printf.sprintf
                   "duplicate tracepoint id %d (first declared at %s)" id at)
          | None -> Hashtbl.replace seen id i)
      | _ -> ())
    (Circuit.instrs c);
  List.rev !out

(* semantic checks over a well-formed circuit; [locs] (from
   [Qasm.parse_with_locs]) attaches source positions to per-instruction
   diagnostics *)
let check ?locs c =
  let instrs = Array.of_list (Circuit.instrs c) in
  let n = Circuit.num_qubits c in
  let out = ref (List.rev (check_tracepoint_ids ?locs c)) in
  let emit ?instr severity code fmt =
    Format.kasprintf
      (fun message ->
        out :=
          { severity; code; message; loc = Option.bind instr (loc_of locs);
            instr }
          :: !out)
      fmt
  in

  (* MQ005 / MQ006: classical dataflow *)
  let df = Dataflow.clbits c in
  List.iter
    (fun (i, missing) ->
      emit ~instr:i Error "MQ005"
        "feedback reads clbit%s %s never written by a measurement"
        (if List.length missing > 1 then "s" else "")
        (int_list_string missing))
    df.Dataflow.unwritten_reads;
  List.iter
    (fun (i, clbit) ->
      emit ~instr:i Warning "MQ006"
        "measurement into clbit %d is overwritten before any read" clbit)
    df.Dataflow.dead_writes;

  (* MQ007: operations on a qubit after its final measurement, with no
     intervening reset (the state is collapsed; later gates usually
     indicate a forgotten reset or a mis-ordered measure) *)
  let last_measure = Array.make n (-1) in
  Array.iteri
    (fun i instr ->
      match instr with
      | Circuit.Instr.Measure { qubit; _ } -> last_measure.(qubit) <- i
      | _ -> ())
    instrs;
  for q = 0 to n - 1 do
    if last_measure.(q) >= 0 then begin
      let i = ref (last_measure.(q) + 1) in
      let stop = ref false in
      while (not !stop) && !i < Array.length instrs do
        (match instrs.(!i) with
        | Circuit.Instr.Reset r when r = q -> stop := true
        | Circuit.Instr.Gate g when List.mem q (Circuit.Gate.qubits g) ->
            emit ~instr:!i Warning "MQ007"
              "gate on qubit %d after its final measurement (no reset)" q;
            stop := true
        | Circuit.Instr.If_gate { gate; _ }
          when List.mem q (Circuit.Gate.qubits gate) ->
            (* conditioned gates after measurement are the usual feedback
               idiom on *other* qubits; on the measured qubit itself they
               are fine too (e.g. teleport corrections) — only flag
               unconditioned gates *)
            stop := true
        | _ -> incr i)
      done
    end
  done;

  (* MQ008: qubits referenced by no instruction at all *)
  let used = Array.make n false in
  Array.iter
    (fun instr ->
      List.iter (fun q -> used.(q) <- true) (Circuit.Instr.qubits instr))
    instrs;
  let unused = List.filter (fun q -> not used.(q)) (List.init n Fun.id) in
  if unused <> [] then
    emit Warning "MQ008" "unused qubit%s %s"
      (if List.length unused > 1 then "s" else "")
      (int_list_string unused);

  (* MQ009: feedback value not representable in the condition's bit mask *)
  Array.iteri
    (fun i instr ->
      match instr with
      | Circuit.Instr.If_gate { clbits; value; _ } ->
          let width = List.length clbits in
          if value < 0 || (width < 62 && value >= 1 lsl width) then
            emit ~instr:i Warning "MQ009"
              "feedback value %d is unreachable for a %d-bit condition" value
              width
      | _ -> ())
    instrs;

  (* MQ010: barriers that fence nothing *)
  Array.iteri
    (fun i instr ->
      match instr with
      | Circuit.Instr.Barrier qs ->
          if qs = [] then emit ~instr:i Info "MQ010" "barrier lists no qubits"
          else if i = 0 || i = Array.length instrs - 1 then
            emit ~instr:i Info "MQ010"
              "barrier at the %s of the program fences nothing"
              (if i = 0 then "start" else "end")
      | _ -> ())
    instrs;

  (* MQ011: nothing for MorphQPV to characterize *)
  if Circuit.tracepoints c = [] then
    emit Info "MQ011" "program has no tracepoints (nothing to characterize)";

  (* MQ012: tracepoint qubits no earlier operation has touched — the
     reduced state there is |0><0| and tomography on them is wasted. The
     circuit's first tracepoint is exempt: a leading tracepoint on
     untouched qubits is the standard input-pragma idiom (the qubits are
     prepared with sampled inputs at characterization time). *)
  let touched = Array.make n false in
  let first_tp = ref true in
  Array.iteri
    (fun i instr ->
      match instr with
      | Circuit.Instr.Tracepoint { qubits; _ } ->
          let idle = List.filter (fun q -> not touched.(q)) qubits in
          if idle <> [] && not !first_tp then
            emit ~instr:i Info "MQ012"
              "tracepoint observes untouched qubit%s %s (state is |0>)"
              (if List.length idle > 1 then "s" else "")
              (int_list_string idle);
          first_tp := false
      | Circuit.Instr.Barrier _ -> ()
      | _ ->
          List.iter (fun q -> touched.(q) <- true) (Circuit.Instr.qubits instr))
    instrs;

  (* stable order: by instruction index, then code; circuit-wide
     diagnostics (no index) last *)
  List.stable_sort
    (fun a b ->
      match (a.instr, b.instr) with
      | Some i, Some j -> if i <> j then compare i j else compare a.code b.code
      | Some _, None -> -1
      | None, Some _ -> 1
      | None, None -> compare a.code b.code)
    (List.rev !out)

(* MQ017: characterizing a program costs one tomography pass per
   tracepoint — 3^k settings times the shot budget — and that bill is
   easy to run up without noticing. [estimate] maps the circuit to
   estimated device seconds; it is a callback because the analysis layer
   sits below the simulator, so the [Sim.Cost]-based estimator is
   supplied by callers (the CLI wires in
   [Sim.Cost.estimate_characterization]). *)
let default_cost_threshold = 1.0

let cost_threshold () =
  match Sys.getenv_opt "MORPHQPV_LINT_COST_THRESHOLD" with
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some t when t > 0. -> t
      | _ -> default_cost_threshold)
  | None -> default_cost_threshold

let check_cost ~estimate ?threshold c =
  let threshold =
    match threshold with Some t -> t | None -> cost_threshold ()
  in
  let seconds = estimate c in
  if seconds > threshold then
    [
      {
        severity = Warning;
        code = "MQ017";
        message =
          Printf.sprintf
            "estimated characterization cost %.3gs exceeds threshold %.3gs \
             (tracepoint tomography settings x shot budget; tune with \
             MORPHQPV_LINT_COST_THRESHOLD)"
            seconds threshold;
        loc = None;
        instr = None;
      };
    ]
  else []

(* MQ018: which simulation engine the auto-router would pick. The class
   itself is Info (it never fails [--strict]); a program that only the
   dense engine can simulate becomes a Warning once the register is wide
   enough that one pass allocates a prohibitive 2^n amplitudes. Like
   MQ017, [classify] is a callback because the routing logic lives in
   [Sim.Engine.sim_class], above this layer — the CLI wires it in. *)
let default_dense_qubit_threshold = 20

let dense_qubit_threshold () =
  match Sys.getenv_opt "MORPHQPV_LINT_DENSE_QUBITS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some t when t > 0 -> t
      | _ -> default_dense_qubit_threshold)
  | None -> default_dense_qubit_threshold

let check_sim_class ~classify ?threshold c =
  let threshold =
    match threshold with Some t -> t | None -> dense_qubit_threshold ()
  in
  let cls = classify c in
  let info =
    {
      severity = Info;
      code = "MQ018";
      message = Printf.sprintf "estimated simulation class: %s" cls;
      loc = None;
      instr = None;
    }
  in
  let n = Circuit.num_qubits c in
  if cls = "dense" && n > threshold then
    [
      info;
      {
        severity = Warning;
        code = "MQ018";
        message =
          Printf.sprintf
            "program is dense-only at %d qubits (threshold %d): every \
             simulation pass touches 2^%d amplitudes and no sparse or \
             stabilizer route applies (tune with MORPHQPV_LINT_DENSE_QUBITS)"
            n threshold n;
        loc = None;
        instr = None;
      };
    ]
  else [ info ]

(* MQ020: per-tracepoint cone content hashes, plus a flag when several
   tracepoints share one cone — under content-addressed caching those
   tracepoints are characterized once. [digests] is a callback (like
   MQ017's [estimate]) because canonical hashing lives in morphqpv.cache,
   above this library. *)
let check_cones ~digests c =
  let ds : (int * string) list = digests c in
  let per_tp =
    List.map
      (fun (id, h) ->
        {
          severity = Info;
          code = "MQ020";
          message = Printf.sprintf "tracepoint %d cone hash %s" id h;
          loc = None;
          instr = None;
        })
      ds
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (id, h) ->
      Hashtbl.replace groups h
        (id :: Option.value ~default:[] (Hashtbl.find_opt groups h)))
    ds;
  let dups =
    Hashtbl.fold
      (fun h ids acc ->
        match ids with
        | _ :: _ :: _ ->
            let ids = List.sort compare ids in
            ( ids,
              {
                severity = Info;
                code = "MQ020";
                message =
                  Printf.sprintf
                    "%d tracepoints share identical cones (%s, hash %s) — \
                     characterized once under caching"
                    (List.length ids)
                    (String.concat ", "
                       (List.map (Printf.sprintf "T%d") ids))
                    h;
                loc = None;
                instr = None;
              } )
            :: acc
        | _ -> acc)
      groups []
    (* hash iteration order is unspecified; sort by the id group for a
       deterministic report *)
    |> List.sort compare |> List.map snd
  in
  per_tp @ dups

(* MQ019's rules for one distribution expectation, shared with
   [Assertion.Dist.make]: the first rule [expected] breaks, or [None]. The
   register range applies when [num_qubits] is known; without it only a
   negative index is out of range. *)
let expect_violation ?num_qubits ?significance expected =
  let seen = Hashtbl.create 8 in
  let dup =
    List.find_opt
      (fun (k, _) ->
        Hashtbl.mem seen k
        || begin
             Hashtbl.add seen k ();
             false
           end)
      expected
  in
  let out_of_range (k, _) =
    k < 0
    || match num_qubits with Some n -> n < 62 && k >= 1 lsl n | None -> false
  in
  let bad_prob (_, p) = p < 0. || p > 1. in
  let mass = List.fold_left (fun acc (_, p) -> acc +. p) 0. expected in
  let bad fmt = Printf.ksprintf Option.some fmt in
  match
    ( dup,
      List.find_opt out_of_range expected,
      List.find_opt bad_prob expected,
      significance )
  with
  | _ when expected = [] -> bad "expect pragma lists no outcome"
  | Some (k, _), _, _, _ -> bad "expect pragma lists basis index %d twice" k
  | _, Some (k, _), _, _ -> (
      match num_qubits with
      | Some n ->
          bad "expect pragma basis index %d is outside the %d-qubit register"
            k n
      | None -> bad "expect pragma basis index %d is negative" k)
  | _, _, Some (k, p), _ ->
      bad "expect pragma probability %g for index %d is outside [0, 1]" p k
  | _, _, _, Some s when s <= 0. || s >= 1. ->
      bad "expect pragma significance %g is outside (0, 1)" s
  | _ when mass > 1. +. 1e-9 ->
      bad "expect pragma probabilities sum to %g > 1" mass
  | _ -> None

(* MQ019: semantic validation of the [expect] distribution pragma — the
   parser keeps it purely syntactic so malformed pragmas reach here as
   diagnosable values instead of parse failures *)
let check_expects ~num_qubits (expects : Qasm.expect_pragma list) =
  List.filter_map
    (fun (e : Qasm.expect_pragma) ->
      Option.map
        (fun message ->
          { severity = Error; code = "MQ019"; message;
            loc = Some e.Qasm.expect_loc; instr = None })
        (expect_violation ~num_qubits ?significance:e.Qasm.significance
           e.Qasm.expected))
    expects

(* the one reader of QASM text: a syntax error (MQ000) or a construction
   error (its [Circuit.Error] code) becomes a located diagnostic instead of
   an exception *)
let read src =
  match Qasm.parse_full src with
  | full -> Ok full
  | exception Qasm.Parse_error { line; column; token; message } ->
      Error
        {
          severity = Error;
          code = "MQ000";
          message =
            (if token = "" then message
             else Printf.sprintf "%s (at %S)" message token);
          loc = Some (line, column);
          instr = None;
        }
  | exception Circuit.Error { code; message; loc } ->
      Error
        { severity = severity_of_code code; code; message; loc; instr = None }

(* every check that needs only the parsed program *)
let check_program (full : Qasm.full) =
  let c = full.Qasm.circuit in
  check ~locs:full.Qasm.locs c
  @ check_expects ~num_qubits:(Circuit.num_qubits c) full.Qasm.expects

let lint_qasm src =
  match read src with Ok full -> check_program full | Error d -> [ d ]
