// Generated by repro all_cells: structural netlist
module all_cells(x_0_, x_1_, x_2_, x_3_, c, maj3_y_18, xor3_y_17, ha_co_4, fa_co_2);
  input x_0_;
  input x_1_;
  input x_2_;
  input x_3_;
  input c;
  output maj3_y_18;
  output xor3_y_17;
  output ha_co_4;
  output fa_co_2;
  wire fa_s_1;
  wire ha_s_3;
  wire and2_y_5;
  wire nand2_y_6;
  wire or2_y_7;
  wire nor2_y_8;
  wire xor2_y_9;
  wire xnor2_y_10;
  wire inv_y_11;
  wire buf_y_12;
  wire mux_y_13;
  wire aoi21_y_14;
  wire oai21_y_15;
  wire aoi22_y_16;
  wire \x[0] ;
  assign \x[0]  = x_0_;
  wire \x[1] ;
  assign \x[1]  = x_1_;
  wire \x[2] ;
  assign \x[2]  = x_2_;
  wire \x[3] ;
  assign \x[3]  = x_3_;
  REPRO_FA fa(.a(\x[0] ), .b(\x[1] ), .cin(c), .s(fa_s_1), .co(fa_co_2));
  REPRO_HA ha(.a(\x[2] ), .b(fa_s_1), .s(ha_s_3), .co(ha_co_4));
  and and2(and2_y_5, \x[3] , fa_co_2);
  nor nor2(nor2_y_8, fa_s_1, \x[3] );
  nand nand2(nand2_y_6, ha_s_3, \x[0] );
  or or2(or2_y_7, ha_co_4, \x[2] );
  xor xor2(xor2_y_9, fa_co_2, ha_s_3);
  xnor xnor2(xnor2_y_10, \x[1] , ha_co_4);
  not inv(inv_y_11, and2_y_5);
  buf buf(buf_y_12, or2_y_7);
  REPRO_MUX2 mux(.a(nand2_y_6), .b(inv_y_11), .sel(\x[2] ), .y(mux_y_13));
  REPRO_AOI21 aoi21(.a(nor2_y_8), .b(buf_y_12), .c(\x[0] ), .y(aoi21_y_14));
  REPRO_OAI21 oai21(.a(xor2_y_9), .b(mux_y_13), .c(c), .y(oai21_y_15));
  REPRO_AOI22 aoi22(.a(xnor2_y_10), .b(\x[1] ), .c(aoi21_y_14), .d(oai21_y_15), .y(aoi22_y_16));
  REPRO_XOR3 xor3(.a(aoi22_y_16), .b(\x[3] ), .c(mux_y_13), .y(xor3_y_17));
  REPRO_MAJ3 maj3(.a(xor3_y_17), .b(aoi21_y_14), .c(1'b1), .y(maj3_y_18));
endmodule

module REPRO_FA(input a, input b, input cin, output s, output co);
  assign s  = a ^ b ^ cin;
  assign co = (a & b) | (a & cin) | (b & cin);
endmodule

module REPRO_HA(input a, input b, output s, output co);
  assign s  = a ^ b;
  assign co = a & b;
endmodule

module REPRO_MUX2(input a, input b, input sel, output y);
  assign y = sel ? b : a;
endmodule

module REPRO_AOI21(input a, input b, input c, output y);
  assign y = ~((a & b) | c);
endmodule

module REPRO_OAI21(input a, input b, input c, output y);
  assign y = ~((a | b) & c);
endmodule

module REPRO_AOI22(input a, input b, input c, input d, output y);
  assign y = ~((a & b) | (c & d));
endmodule

module REPRO_XOR3(input a, input b, input c, output y);
  assign y = a ^ b ^ c;
endmodule

module REPRO_MAJ3(input a, input b, input c, output y);
  assign y = (a & b) | (a & c) | (b & c);
endmodule
