5 10
p
q
s
t
u
p q
p s
p t
p u
q s
q t
q u
s t
s u
t u
