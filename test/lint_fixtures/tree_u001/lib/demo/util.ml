let doubled x = 2 * x
