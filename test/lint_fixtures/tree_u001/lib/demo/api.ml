let used x = x + 1

let dead x = Util.doubled x
