(* The program's one JSON module: values, a recursive-descent parser, and
   a writer that always emits one line (control characters in strings are
   escaped, so any payload — QASM sources included — survives the line
   framing of the daemon protocol and of JSONL files). Hand-rolled and
   dependency-free so every layer, down to observability, can link it.

   The parser is total and bounded: any input returns [Ok] or [Error]
   (never raises), and nesting deeper than [max_depth] is rejected. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------ writer ------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
      (* JSON has no inf/nan literals; degrade to null rather than emit
         an unparseable line *)
      if not (Float.is_finite x) then Buffer.add_string buf "null"
      else if Float.is_integer x && Float.abs x < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" x)
      else Buffer.add_string buf (Printf.sprintf "%.17g" x)
  | Str s -> escape buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------ parser ------------------------------- *)

exception Bad of string

let max_depth = 128

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let utf8_of_code buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit = function
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let h = ref 0 in
    for _ = 1 to 4 do
      h := (!h lsl 4) lor digit s.[!pos];
      advance ()
    done;
    !h
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "truncated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'u' ->
              advance ();
              let u = hex4 () in
              let u =
                (* surrogate pair *)
                if u >= 0xD800 && u <= 0xDBFF && !pos + 6 <= n
                   && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
                  else begin
                    (* not a pair: keep both code units *)
                    utf8_of_code buf u;
                    lo
                  end
                end
                else u
              in
              utf8_of_code buf u
          | c -> fail (Printf.sprintf "bad escape %C" c));
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ----------------------------- accessors ------------------------------ *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num x -> Some x | _ -> None

let to_int = function
  | Num x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None

let mem_str k v = Option.bind (member k v) to_str
let mem_int k v = Option.bind (member k v) to_int
let mem_list k v = Option.bind (member k v) to_list
let int i = Num (float_of_int i)
