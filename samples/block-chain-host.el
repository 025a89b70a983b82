# K4 a,b,c,o; bridge c d; square d,m,e,n; K4 e,f,g,i; triangle g,x,y
13 20
a
b
c
o
d
m
e
n
f
g
i
x
y
a b
a c
a o
b c
b o
c o
c d
d m
m e
e n
d n
e f
e g
e i
f g
f i
g i
g x
x y
g y
