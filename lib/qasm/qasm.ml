exception
  Parse_error of {
    line : int;
    column : int;  (** 1-based; 0 when no precise column is known *)
    token : string;  (** offending token text; [""] when not token-level *)
    message : string;
  }

let fail ?(column = 0) ?(token = "") line fmt =
  Format.kasprintf
    (fun message -> raise (Parse_error { line; column; token; message }))
    fmt

(* ---------------- lexer ---------------- *)

type token =
  | Ident of string
  | Number of float
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Semicolon
  | Arrow
  | Eqeq
  | Minus
  | Plus
  | Star
  | Slash
  | Lbrace
  | Rbrace
  | Str of string

let token_text = function
  | Ident s -> s
  | Number f -> Printf.sprintf "%g" f
  | Lparen -> "("
  | Rparen -> ")"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Comma -> ","
  | Semicolon -> ";"
  | Arrow -> "->"
  | Eqeq -> "=="
  | Minus -> "-"
  | Plus -> "+"
  | Star -> "*"
  | Slash -> "/"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Str s -> "\"" ^ s ^ "\""

(* [stop]: the 1-based column just after the token *)
type lexed = { token : token; line : int; col : int; stop : int }

let tokenize src =
  let tokens = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let start = !i in
    let push ?(len = 1) t =
      tokens :=
        { token = t; line = !line; col = start - !bol + 1;
          stop = start + len - !bol + 1 }
        :: !tokens
    in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      while
        !i < n
        &&
        let c = src.[!i] in
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_'
      do
        incr i
      done;
      push ~len:(!i - start) (Ident (String.sub src start (!i - start)))
    end
    else if (c >= '0' && c <= '9') || c = '.' then begin
      let start = !i in
      while
        !i < n
        &&
        let c = src.[!i] in
        (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E'
        || ((c = '+' || c = '-')
           && !i > start
           && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E'))
      do
        incr i
      done;
      let text = String.sub src start (!i - start) in
      match float_of_string_opt text with
      | Some f -> push ~len:(!i - start) (Number f)
      | None ->
          fail ~column:(start - !bol + 1) ~token:text !line "bad number %S"
            text
    end
    else if c = '"' then begin
      incr i;
      let start = !i in
      while !i < n && src.[!i] <> '"' do
        incr i
      done;
      if !i >= n then
        fail ~column:(start - !bol + 1) !line "unterminated string";
      push ~len:(!i - start + 2) (Str (String.sub src start (!i - start)));
      incr i
    end
    else begin
      (match c with
      | '(' -> push Lparen
      | ')' -> push Rparen
      | '[' -> push Lbracket
      | ']' -> push Rbracket
      | ',' -> push Comma
      | ';' -> push Semicolon
      | '-' ->
          if !i + 1 < n && src.[!i + 1] = '>' then begin
            push ~len:2 Arrow;
            incr i
          end
          else push Minus
      | '=' ->
          if !i + 1 < n && src.[!i + 1] = '=' then begin
            push ~len:2 Eqeq;
            incr i
          end
          else
            fail ~column:(start - !bol + 1) ~token:"=" !line "unexpected '='"
      | '+' -> push Plus
      | '*' -> push Star
      | '/' -> push Slash
      | '{' -> push Lbrace
      | '}' -> push Rbrace
      | c ->
          fail ~column:(start - !bol + 1) ~token:(String.make 1 c) !line
            "unexpected character %C" c);
      incr i
    end
  done;
  List.rev !tokens

(* ---------------- parser ---------------- *)

(* [at_end]: (line, column) just after the token [next] returned last,
   where an input that ends mid-statement is reported *)
type state = { mutable toks : lexed list; mutable at_end : int * int }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

(* fail at a specific token, reporting its position and text *)
let fail_at (t : lexed) fmt =
  fail ~column:t.col ~token:(token_text t.token) t.line fmt

let next st =
  match st.toks with
  | [] ->
      let line, column = st.at_end in
      fail ~column line "unexpected end of input"
  | t :: rest ->
      st.toks <- rest;
      st.at_end <- (t.line, t.stop);
      t

let expect st token what =
  let t = next st in
  if t.token <> token then fail_at t "expected %s" what

let expect_ident st =
  let t = next st in
  match t.token with
  | Ident s -> s
  | _ -> fail_at t "expected identifier"

let expect_int st =
  let t = next st in
  match t.token with
  | Number f when Float.is_integer f -> int_of_float f
  | _ -> fail_at t "expected integer"

(* expression grammar for gate parameters; [env] binds the formal
   parameters of user gate definitions *)
let rec parse_expr ?(env = []) st =
  let lhs = parse_term ~env st in
  match peek st with
  | Some { token = Plus; _ } ->
      ignore (next st);
      lhs +. parse_expr ~env st
  | Some { token = Minus; _ } ->
      ignore (next st);
      lhs -. parse_expr ~env st
  | _ -> lhs

and parse_term ~env st =
  let lhs = parse_factor ~env st in
  match peek st with
  | Some { token = Star; _ } ->
      ignore (next st);
      lhs *. parse_term ~env st
  | Some { token = Slash; _ } ->
      ignore (next st);
      lhs /. parse_term ~env st
  | _ -> lhs

and parse_factor ~env st =
  let t = next st in
  match t.token with
  | Number f -> f
  | Ident "pi" -> Float.pi
  | Ident name when List.mem_assoc name env -> List.assoc name env
  | Minus -> -.parse_factor ~env st
  | Lparen ->
      let v = parse_expr ~env st in
      expect st Rparen ")";
      v
  | _ -> fail_at t "expected parameter expression"

(* q[i] or q[i,j,k]; returns index list *)
let parse_qref st =
  let _name = expect_ident st in
  expect st Lbracket "[";
  let first = expect_int st in
  let rec more acc =
    match peek st with
    | Some { token = Comma; _ } ->
        ignore (next st);
        more (expect_int st :: acc)
    | _ -> List.rev acc
  in
  let indices = more [ first ] in
  expect st Rbracket "]";
  indices

let parse_params ?(env = []) st =
  match peek st with
  | Some { token = Lparen; _ } ->
      ignore (next st);
      let rec go acc =
        let v = parse_expr ~env st in
        match peek st with
        | Some { token = Comma; _ } ->
            ignore (next st);
            go (v :: acc)
        | _ ->
            expect st Rparen ")";
            List.rev (v :: acc)
      in
      go []
  | _ -> []

let parse_args st =
  let rec go acc =
    let arg = parse_qref st in
    match peek st with
    | Some { token = Comma; _ } ->
        ignore (next st);
        go (arg :: acc)
    | _ -> List.rev (arg :: acc)
  in
  go []

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* map a parsed gate statement to Gate.t values; [loc] is the (line, col)
   of the statement's leading token, stamped onto validation errors *)
let rec build_gates ((line, col) as loc) name params args =
  try build_gates_unchecked line name params args with
  | Circuit.Error e when e.Circuit.loc = None ->
      raise (Circuit.Error { e with Circuit.loc = Some loc })
  | Invalid_argument msg -> fail ~column:col line "%s" msg

and build_gates_unchecked line name params args =
  let single = function
    | [ q ] -> q
    | _ -> fail line "gate %s expects single-index arguments" name
  in
  match name with
  | "cx" | "cy" | "cz" -> (
      match args with
      | [ a; b ] ->
          [ Circuit.Gate.make ~controls:[ single a ] (String.sub name 1 1) [ single b ] ]
      | _ -> fail line "%s expects two arguments" name)
  | "cp" | "crx" | "cry" | "crz" -> (
      match args with
      | [ a; b ] ->
          [
            Circuit.Gate.make ~params
              ~controls:[ single a ]
              (String.sub name 1 (String.length name - 1))
              [ single b ];
          ]
      | _ -> fail line "%s expects two arguments" name)
  | "ccx" -> (
      match args with
      | [ a; b; c ] ->
          [ Circuit.Gate.make ~controls:[ single a; single b ] "x" [ single c ] ]
      | _ -> fail line "ccx expects three arguments")
  | "swap" -> (
      match args with
      | [ a; b ] -> [ Circuit.Gate.make "swap" [ single a; single b ] ]
      | [ [ a; b ] ] -> [ Circuit.Gate.make "swap" [ a; b ] ]
      | _ -> fail line "swap expects two arguments")
  | name when starts_with "mc" name -> (
      let base = String.sub name 2 (String.length name - 2) in
      match args with
      | [ controls; target ] ->
          [ Circuit.Gate.make ~params ~controls base [ single target ] ]
      | [ combined ] -> (
          (* mcz q[1,2,3] form: last index is the target *)
          match List.rev combined with
          | target :: rev_controls ->
              [ Circuit.Gate.make ~params ~controls:(List.rev rev_controls) base [ target ] ]
          | [] -> fail line "%s expects qubits" name)
      | _ -> fail line "%s expects controls and a target" name)
  | name ->
      (* broadcast a single-qubit gate over all listed indices *)
      List.concat_map
        (fun indices -> List.map (fun q -> Circuit.Gate.make ~params name [ q ]) indices)
        args

(* user gate definitions: formal parameter names, formal qubit args, and
   the raw token stream of the body (re-parsed per use with bindings) *)
type gate_def = { formals : string list; qargs : string list; body : lexed list }

(* parse a comma-separated list of bare identifiers *)
let parse_ident_list st =
  let rec go acc =
    let name = expect_ident st in
    match peek st with
    | Some { token = Comma; _ } ->
        ignore (next st);
        go (name :: acc)
    | _ -> List.rev (name :: acc)
  in
  go []

(* expand one use of a user-defined gate to primitive Gate.t values;
   [lookup] resolves nested user gates, [qmap] maps formal arg names to
   concrete qubit indices, [env] binds formal parameters *)
let rec expand_def ~lookup ~depth line (def : gate_def) ~env ~qmap =
  if depth > 32 then fail line "gate definitions nested too deeply";
  let st = { toks = def.body; at_end = (1, 1) } in
  let out = ref [] in
  let rec stmts () =
    match peek st with
    | None -> ()
    | Some ({ token = Ident name; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        let params = parse_params ~env st in
        let args = parse_ident_list st in
        expect st Semicolon ";";
        let qubits =
          List.map
            (fun a ->
              match List.assoc_opt a qmap with
              | Some q -> q
              | None -> fail line "unknown qubit argument %s" a)
            args
        in
        (match lookup name with
        | Some inner ->
            if List.length inner.formals <> List.length params then
              fail line "gate %s expects %d parameters" name
                (List.length inner.formals);
            if List.length inner.qargs <> List.length qubits then
              fail line "gate %s expects %d qubits" name (List.length inner.qargs);
            let env' = List.combine inner.formals params in
            let qmap' = List.combine inner.qargs qubits in
            out :=
              !out
              @ expand_def ~lookup ~depth:(depth + 1) line inner ~env:env'
                  ~qmap:qmap'
        | None ->
            out :=
              !out
              @ build_gates (tk.line, tk.col) name params
                  (List.map (fun q -> [ q ]) qubits));
        stmts ()
    | Some tk -> fail_at tk "expected gate statement in body"
  in
  stmts ();
  !out

(* distribution-level expectation pragma: [expect K P, K P, ...;] with an
   optional significance in parens — [expect(0.01) 0 0.5, 7 0.5;]. Parsed
   purely syntactically; semantic validation (probability range, index
   range, duplicates) is the linter's MQ019 and [Assertion.Dist.make]'s
   job, so a malformed pragma still parses to a diagnosable value. *)
type expect_pragma = {
  expected : (int * float) list;
  significance : float option;
  expect_loc : int * int;
}

type full = {
  circuit : Circuit.t;
  locs : (int * int) array;
  expects : expect_pragma list;
}

let parse_full src =
  let st = { toks = tokenize src; at_end = (1, 1) } in
  let qreg = ref None and creg = ref 0 in
  let qreg_loc = ref (0, 0) in
  let expects = ref [] in
  let defs : (string, gate_def) Hashtbl.t = Hashtbl.create 8 in
  (* each pending instruction carries the (line, col) of its statement *)
  let pending : (Circuit.Instr.t * (int * int)) list ref = ref [] in
  let require_circuit line =
    match !qreg with
    | Some n -> n
    | None -> fail line "qreg must be declared before statements"
  in
  let rec stmt () =
    match peek st with
    | None -> ()
    | Some { token = Ident "OPENQASM"; _ } ->
        ignore (next st);
        ignore (next st);
        expect st Semicolon ";";
        stmt ()
    | Some { token = Ident "include"; _ } ->
        ignore (next st);
        ignore (next st);
        expect st Semicolon ";";
        stmt ()
    | Some ({ token = Ident "qreg"; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        let _name = expect_ident st in
        expect st Lbracket "[";
        let n = expect_int st in
        expect st Rbracket "]";
        expect st Semicolon ";";
        if !qreg <> None then fail line "only one qreg supported";
        qreg := Some n;
        qreg_loc := (tk.line, tk.col);
        stmt ()
    | Some { token = Ident "creg"; _ } ->
        ignore (next st);
        let _name = expect_ident st in
        expect st Lbracket "[";
        let n = expect_int st in
        expect st Rbracket "]";
        expect st Semicolon ";";
        creg := max !creg n;
        stmt ()
    | Some { token = Ident "gate"; line; _ } ->
        ignore (next st);
        let name = expect_ident st in
        let formals =
          match peek st with
          | Some { token = Lparen; _ } ->
              ignore (next st);
              let l = parse_ident_list st in
              expect st Rparen ")";
              l
          | _ -> []
        in
        let qargs = parse_ident_list st in
        (match next st with
        | { token = Lbrace; _ } -> ()
        | { line; _ } -> fail line "expected '{'");
        let body = ref [] in
        let rec grab () =
          match next st with
          | { token = Rbrace; _ } -> ()
          | tok ->
              body := tok :: !body;
              grab ()
        in
        grab ();
        if Hashtbl.mem defs name then fail line "gate %s redefined" name;
        Hashtbl.replace defs name { formals; qargs; body = List.rev !body };
        stmt ()
    | Some ({ token = Ident "T"; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        ignore (require_circuit line);
        let id = expect_int st in
        let qubits = parse_qref st in
        expect st Semicolon ";";
        pending :=
          (Circuit.Instr.Tracepoint { id; qubits }, (tk.line, tk.col))
          :: !pending;
        stmt ()
    | Some ({ token = Ident "expect"; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        ignore (require_circuit line);
        let significance =
          match peek st with
          | Some { token = Lparen; _ } ->
              ignore (next st);
              let v = parse_expr st in
              expect st Rparen ")";
              Some v
          | _ -> None
        in
        let pair () =
          let k = expect_int st in
          let p = parse_expr st in
          (k, p)
        in
        let rec pairs acc =
          let acc = pair () :: acc in
          match peek st with
          | Some { token = Comma; _ } ->
              ignore (next st);
              pairs acc
          | _ -> List.rev acc
        in
        let expected = pairs [] in
        expect st Semicolon ";";
        expects :=
          { expected; significance; expect_loc = (tk.line, tk.col) }
          :: !expects;
        stmt ()
    | Some ({ token = Ident "measure"; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        ignore (require_circuit line);
        let q = parse_qref st in
        expect st Arrow "->";
        let c = parse_qref st in
        expect st Semicolon ";";
        (match (q, c) with
        | [ qubit ], [ clbit ] ->
            pending :=
              (Circuit.Instr.Measure { qubit; clbit }, (tk.line, tk.col))
              :: !pending
        | _ -> fail line "measure expects single indices");
        stmt ()
    | Some ({ token = Ident "reset"; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        ignore (require_circuit line);
        let q = parse_qref st in
        expect st Semicolon ";";
        (match q with
        | [ qubit ] ->
            pending :=
              (Circuit.Instr.Reset qubit, (tk.line, tk.col)) :: !pending
        | _ -> fail line "reset expects a single index");
        stmt ()
    | Some ({ token = Ident "barrier"; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        ignore (require_circuit line);
        let qs = parse_args st in
        expect st Semicolon ";";
        pending :=
          (Circuit.Instr.Barrier (List.concat qs), (tk.line, tk.col))
          :: !pending;
        stmt ()
    | Some ({ token = Ident "if"; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        ignore (require_circuit line);
        expect st Lparen "(";
        (* c==v or c[i]==v or c[i,j]==v *)
        let _cname = expect_ident st in
        let clbits =
          match peek st with
          | Some { token = Lbracket; _ } ->
              ignore (next st);
              let first = expect_int st in
              let rec more acc =
                match peek st with
                | Some { token = Comma; _ } ->
                    ignore (next st);
                    more (expect_int st :: acc)
                | _ -> List.rev acc
              in
              let l = more [ first ] in
              expect st Rbracket "]";
              l
          | _ -> List.init !creg (fun i -> i)
        in
        expect st Eqeq "==";
        let value = expect_int st in
        expect st Rparen ")";
        let gname = expect_ident st in
        let params = parse_params st in
        let args = parse_args st in
        expect st Semicolon ";";
        (match build_gates (tk.line, tk.col) gname params args with
        | [ gate ] ->
            pending :=
              (Circuit.Instr.If_gate { clbits; value; gate }, (tk.line, tk.col))
              :: !pending
        | _ -> fail line "if-statement expects a single gate");
        stmt ()
    | Some ({ token = Ident name; _ } as tk) when Hashtbl.mem defs name ->
        let line = tk.line in
        ignore (next st);
        ignore (require_circuit line);
        let def = Hashtbl.find defs name in
        let params = parse_params st in
        let args = parse_args st in
        expect st Semicolon ";";
        let qubits =
          List.map
            (function
              | [ q ] -> q
              | _ -> fail line "user gate %s expects single-index arguments" name)
            args
        in
        if List.length def.formals <> List.length params then
          fail line "gate %s expects %d parameters" name (List.length def.formals);
        if List.length def.qargs <> List.length qubits then
          fail line "gate %s expects %d qubits" name (List.length def.qargs);
        let gates =
          expand_def
            ~lookup:(Hashtbl.find_opt defs)
            ~depth:0 line def
            ~env:(List.combine def.formals params)
            ~qmap:(List.combine def.qargs qubits)
        in
        List.iter
          (fun g ->
            pending := (Circuit.Instr.Gate g, (tk.line, tk.col)) :: !pending)
          gates;
        stmt ()
    | Some ({ token = Ident name; _ } as tk) ->
        let line = tk.line in
        ignore (next st);
        ignore (require_circuit line);
        let params = parse_params st in
        let args = parse_args st in
        expect st Semicolon ";";
        let gates = build_gates (tk.line, tk.col) name params args in
        List.iter
          (fun g ->
            pending := (Circuit.Instr.Gate g, (tk.line, tk.col)) :: !pending)
          gates;
        stmt ()
    | Some tk -> fail_at tk "expected statement"
  in
  stmt ();
  let n =
    match !qreg with
    | Some n -> n
    | None -> fail 0 "program declares no qreg"
  in
  let items = List.rev !pending in
  let with_loc loc f =
    try f () with
    | Circuit.Error e when e.Circuit.loc = None ->
        raise (Circuit.Error { e with Circuit.loc = Some loc })
    | Invalid_argument msg -> fail ~column:(snd loc) (fst loc) "%s" msg
  in
  let circuit =
    List.fold_left
      (fun c (i, loc) -> with_loc loc (fun () -> Circuit.add i c))
      (with_loc !qreg_loc (fun () -> Circuit.empty ~clbits:!creg n))
      items
  in
  {
    circuit;
    locs = Array.of_list (List.map snd items);
    expects = List.rev !expects;
  }

let parse_with_locs src =
  let f = parse_full src in
  (f.circuit, f.locs)

let parse src = (parse_full src).circuit

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file_full path = parse_full (read_file path)

let parse_file path = (parse_file_full path).circuit

(* ---------------- printer ---------------- *)

let pp_params buf params =
  match params with
  | [] -> ()
  | ps ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%.12g" p))
        ps;
      Buffer.add_char buf ')'

let pp_qlist buf qs =
  Buffer.add_string buf "q[";
  List.iteri
    (fun i q ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int q))
    qs;
  Buffer.add_char buf ']'

let pp_gate buf (g : Circuit.Gate.t) =
  (match (g.Circuit.Gate.controls, g.Circuit.Gate.name, g.Circuit.Gate.targets) with
  | [], name, targets ->
      Buffer.add_string buf name;
      pp_params buf g.Circuit.Gate.params;
      Buffer.add_char buf ' ';
      pp_qlist buf targets
  | [ c ], (("x" | "y" | "z") as name), [ t ] ->
      Buffer.add_string buf ("c" ^ name);
      Buffer.add_char buf ' ';
      pp_qlist buf [ c ];
      Buffer.add_char buf ',';
      pp_qlist buf [ t ]
  | controls, name, [ t ] ->
      Buffer.add_string buf ("mc" ^ name);
      pp_params buf g.Circuit.Gate.params;
      Buffer.add_char buf ' ';
      pp_qlist buf controls;
      Buffer.add_char buf ',';
      pp_qlist buf [ t ]
  | _ -> invalid_arg "Qasm.to_string: unsupported gate shape");
  Buffer.add_string buf ";\n"

let to_string c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "OPENQASM 2.0;\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" (Circuit.num_qubits c));
  if Circuit.num_clbits c > 0 then
    Buffer.add_string buf (Printf.sprintf "creg c[%d];\n" (Circuit.num_clbits c));
  List.iter
    (fun instr ->
      match instr with
      | Circuit.Instr.Gate g -> pp_gate buf g
      | Circuit.Instr.Tracepoint { id; qubits } ->
          Buffer.add_string buf (Printf.sprintf "T %d " id);
          pp_qlist buf qubits;
          Buffer.add_string buf ";\n"
      | Circuit.Instr.Measure { qubit; clbit } ->
          Buffer.add_string buf
            (Printf.sprintf "measure q[%d] -> c[%d];\n" qubit clbit)
      | Circuit.Instr.Reset q ->
          Buffer.add_string buf (Printf.sprintf "reset q[%d];\n" q)
      | Circuit.Instr.If_gate { clbits; value; gate } ->
          Buffer.add_string buf "if (c[";
          List.iteri
            (fun i b ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf (string_of_int b))
            clbits;
          Buffer.add_string buf (Printf.sprintf "]==%d) " value);
          let inner = Buffer.create 32 in
          pp_gate inner gate;
          Buffer.add_string buf (Buffer.contents inner)
      | Circuit.Instr.Barrier qs ->
          Buffer.add_string buf "barrier ";
          pp_qlist buf qs;
          Buffer.add_string buf ";\n")
    (Circuit.instrs c);
  Buffer.contents buf
