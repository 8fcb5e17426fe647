let gate_choices = [| "sx"; "sy"; "sw" |]

let make rng ~n ~depth =
  if n <= 0 || depth <= 0 then invalid_arg "Xeb.make: bad shape";
  let c = ref (Circuit.empty n) in
  c := Circuit.tracepoint 1 (List.init n (fun q -> q)) !c;
  let last = Array.make n (-1) in
  for cycle = 0 to depth - 1 do
    for q = 0 to n - 1 do
      let pick = ref (Stats.Rng.int rng 3) in
      while !pick = last.(q) do
        pick := Stats.Rng.int rng 3
      done;
      last.(q) <- !pick;
      c := Circuit.gate gate_choices.(!pick) [ q ] !c
    done;
    let offset = cycle mod 2 in
    let q = ref offset in
    while !q + 1 < n do
      c := Circuit.cz !q (!q + 1) !c;
      q := !q + 2
    done
  done;
  c := Circuit.tracepoint 2 (List.init n (fun q -> q)) !c;
  !c

let linear_xeb ~ideal_probs ~samples =
  if Array.length samples = 0 then invalid_arg "Xeb.linear_xeb: no samples";
  let d = float_of_int (Array.length ideal_probs) in
  let mean =
    Array.fold_left (fun acc k -> acc +. ideal_probs.(k)) 0. samples
    /. float_of_int (Array.length samples)
  in
  (d *. mean) -. 1.
