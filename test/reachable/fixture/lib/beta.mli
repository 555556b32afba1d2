val shared : int -> int
