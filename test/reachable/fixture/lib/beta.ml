let shared x = x * 2
